#include "mem/interconnect.hh"

#include "common/logging.hh"
#include "sim/check.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

namespace scusim::mem
{

Interconnect::Interconnect(const InterconnectParams &params,
                           unsigned devices,
                           sim::Simulation &simulation,
                           stats::StatGroup *parent)
    : p(params), numDevices(devices),
      links(static_cast<std::size_t>(devices) * devices),
      delivered(devices), grp("icn", parent),
      messages(&grp, "messages", "boundary messages moved"),
      bytesMoved(&grp, "bytes_moved", "payload bytes moved")
{
    fatal_if(devices < 2,
             "an interconnect needs at least two devices");
    fatal_if(p.bytesPerTick == 0,
             "interconnect bytesPerTick must be nonzero");
    for (Link &l : links)
        l.q.setCapacity(p.queueCapacity);
    simulation.addClocked(this, "icn");
}

Interconnect::Link &
Interconnect::link(DeviceId s, DeviceId d)
{
    return links[static_cast<std::size_t>(s) * numDevices + d];
}

const Interconnect::Link &
Interconnect::link(DeviceId s, DeviceId d) const
{
    return links[static_cast<std::size_t>(s) * numDevices + d];
}

bool
Interconnect::canSend(DeviceId src, DeviceId dst) const
{
    return !link(src, dst).q.full();
}

void
Interconnect::send(const IcnMessage &m, Tick now)
{
    panic_if(m.src >= numDevices || m.dst >= numDevices,
             "interconnect message %u -> %u out of range", m.src,
             m.dst);
    Link &l = link(m.src, m.dst);
    panic_if(l.q.full(),
             "send into full link %u -> %u (credit bug)", m.src,
             m.dst);

    const Tick depart = std::max(now, l.nextFree);
    const Tick ser = std::max<Tick>(
        1, (m.bytes + p.bytesPerTick - 1) / p.bytesPerTick);
    l.nextFree = depart + ser;

    const Tick arrive = depart + ser + p.latency;
    sim::checkMemCompletion("interconnect", now, arrive);

    l.q.push(InFlight{m, arrive});
    ++msgCount;
    byteCnt += m.bytes;
    ++messages;
    bytesMoved += m.bytes;
    TRACE_EVENT_SPAN(traceChan, trace::Category::Mem,
                     "msg d" + std::to_string(m.src) + "->d" +
                         std::to_string(m.dst),
                     now, arrive, m.bytes);
    notifyWake();
}

std::vector<IcnMessage>
Interconnect::drain(DeviceId dst)
{
    std::vector<IcnMessage> out;
    out.swap(delivered[dst]);
    return out;
}

void
Interconnect::tick(Tick now)
{
    for (DeviceId s = 0; s < numDevices; ++s) {
        for (DeviceId d = 0; d < numDevices; ++d) {
            Link &l = link(s, d);
            while (!l.q.empty() && l.q.front().arrive <= now) {
                delivered[d].push_back(l.q.front().msg);
                l.q.pop();
                noteProgress();
            }
        }
    }
}

bool
Interconnect::busy(Tick now) const
{
    for (const Link &l : links) {
        if (!l.q.empty() && l.q.front().arrive <= now)
            return true;
    }
    return false;
}

Tick
Interconnect::nextWakeTick() const
{
    Tick wake = tickNever;
    for (const Link &l : links) {
        if (!l.q.empty())
            wake = std::min(wake, l.q.front().arrive);
    }
    return wake;
}

void
Interconnect::attachTrace(trace::TraceSink &sink)
{
    traceChan = sink.channel("icn");
}

} // namespace scusim::mem
