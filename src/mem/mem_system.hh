/**
 * @file
 * The shared memory side of the GPU: interconnect + banked L2 + DRAM,
 * exposed to the SMs and the SCU as a single MemLevel (Figure 5 of
 * the paper: both SMs and SCU sit on the interconnection network in
 * front of the L2/memory-controller complex).
 */

#ifndef SCUSIM_MEM_MEM_SYSTEM_HH
#define SCUSIM_MEM_MEM_SYSTEM_HH

#include <memory>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/request.hh"
#include "sim/clock.hh"
#include "stats/stats.hh"

namespace scusim::trace
{
class TraceChannel;
class TraceSink;
} // namespace scusim::trace

namespace scusim::mem
{

/** Parameters of the shared memory system. */
struct MemSystemParams
{
    CacheParams l2;
    DramParams dram;
    Tick icnLatency = 8; ///< one-way interconnect latency, cycles
};

/**
 * Interconnect + L2 + DRAM. Also the keeper of system-level traffic
 * statistics used for Figure 13 (bandwidth utilization).
 */
class MemSystem : public MemLevel
{
  public:
    MemSystem(const MemSystemParams &params,
              const sim::ClockDomain &clock,
              stats::StatGroup *parent);

    MemResult access(Tick issue, Addr addr, AccessKind kind,
                     unsigned bytes) override;

    /** Bind this component's trace channel ("memsys",
     *  device-prefixed on multi-device systems). */
    void attachTrace(trace::TraceSink &sink,
                     const std::string &prefix = "");

    Cache &l2() { return l2Cache; }
    Dram &dram() { return dramModel; }
    const sim::ClockDomain &clock() const { return clk; }

    /** DRAM bytes moved so far (reads + writes, line granular). */
    double dramBytes() const { return dramModel.bytesMoved(); }

    /** Peak DRAM bandwidth in bytes/sec. */
    double
    peakBandwidth() const
    {
        return dramModel.params().peakBytesPerSec;
    }

    /**
     * Fraction of peak bandwidth consumed over @p elapsed cycles.
     * This is the Figure 13 metric.
     */
    double
    bandwidthUtilization(Tick elapsed) const
    {
        double secs = clk.toSeconds(elapsed);
        if (secs <= 0)
            return 0;
        return dramBytes() / (peakBandwidth() * secs);
    }

  private:
    sim::ClockDomain clk;
    Tick icnLat;
    stats::StatGroup grp;
    Dram dramModel;
    Cache l2Cache;
    stats::Scalar requests;
    trace::TraceChannel *traceChan = nullptr;
};

} // namespace scusim::mem

#endif // SCUSIM_MEM_MEM_SYSTEM_HH
