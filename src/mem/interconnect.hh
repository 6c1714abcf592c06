/**
 * @file
 * Modeled inter-device interconnect for sharded multi-device
 * simulation. Each ordered device pair owns one directed link: a
 * bounded FIFO of in-flight messages plus a serialization cursor, so
 * a message pays max(1, bytes/bytesPerTick) ticks of link occupancy
 * before a fixed propagation latency. Back-pressure is explicit —
 * canSend() exposes FIFO fullness and senders must stall — and the
 * FIFOs participate in the SCUSIM_CHECK credit accounting like every
 * other queue in the simulator.
 */

#ifndef SCUSIM_MEM_INTERCONNECT_HH
#define SCUSIM_MEM_INTERCONNECT_HH

#include <cstdint>
#include <vector>

#include "common/fifo.hh"
#include "common/types.hh"
#include "sim/clocked.hh"
#include "stats/stats.hh"

namespace scusim::trace
{
class TraceSink;
class TraceChannel;
} // namespace scusim::trace

namespace scusim::sim
{
class Simulation;
}

namespace scusim::mem
{

/** Timing knobs of the inter-device link model. */
struct InterconnectParams
{
    /** Propagation latency per message, in core ticks. */
    Tick latency = 32;
    /** Serialization bandwidth: payload bytes moved per tick. */
    unsigned bytesPerTick = 16;
    /** Per-directed-link in-flight message capacity. */
    std::size_t queueCapacity = 256;
};

/** One boundary message between devices: two payload words. */
struct IcnMessage
{
    DeviceId src = 0;
    DeviceId dst = 0;
    std::uint32_t a = 0; ///< payload word 0 (e.g. global node id)
    std::uint32_t b = 0; ///< payload word 1 (e.g. level / cost / bits)
    unsigned bytes = 8;  ///< wire size charged to the link
};

/**
 * All-to-all message network between the simulated devices. Clocked:
 * delivery happens in tick() once a message's arrival tick is due, so
 * messages ride the same event-driven scheduler (and watchdog) as
 * every other component.
 */
class Interconnect : public sim::Clocked
{
  public:
    Interconnect(const InterconnectParams &params, unsigned devices,
                 sim::Simulation &simulation,
                 stats::StatGroup *parent);

    /** Whether the (src, dst) link can accept a message now. */
    bool canSend(DeviceId src, DeviceId dst) const;

    /**
     * Enqueue @p m at @p now. The caller must have observed
     * canSend(); pushing into a full link panics (credit bug).
     */
    void send(const IcnMessage &m, Tick now);

    /** Take every message delivered to @p dst so far, in order. */
    std::vector<IcnMessage> drain(DeviceId dst);

    void tick(Tick now) override;
    bool busy(Tick now) const override;
    Tick nextWakeTick() const override;

    std::uint64_t messageCount() const { return msgCount; }
    std::uint64_t byteCount() const { return byteCnt; }

    void attachTrace(trace::TraceSink &sink);

    const InterconnectParams &params() const { return p; }
    unsigned deviceCount() const { return numDevices; }

  private:
    struct InFlight
    {
        IcnMessage msg;
        Tick arrive = 0;
    };

    /** One directed link's state. */
    struct Link
    {
        BoundedFifo<InFlight> q;
        Tick nextFree = 0; ///< when the serializer is available
    };

    Link &link(DeviceId s, DeviceId d);
    const Link &link(DeviceId s, DeviceId d) const;

    InterconnectParams p;
    unsigned numDevices;
    std::vector<Link> links; ///< numDevices^2, src-major
    std::vector<std::vector<IcnMessage>> delivered; ///< per dst

    std::uint64_t msgCount = 0;
    std::uint64_t byteCnt = 0;

    stats::StatGroup grp;
    stats::Scalar messages;
    stats::Scalar bytesMoved;

    trace::TraceChannel *traceChan = nullptr;
};

} // namespace scusim::mem

#endif // SCUSIM_MEM_INTERCONNECT_HH
