#include "mem/mem_system.hh"

#include "sim/check.hh"
#include "trace/trace.hh"

namespace scusim::mem
{

MemSystem::MemSystem(const MemSystemParams &params,
                     const sim::ClockDomain &clock,
                     stats::StatGroup *parent)
    : clk(clock), icnLat(params.icnLatency),
      grp("memsys", parent),
      dramModel(params.dram, clock, &grp),
      l2Cache(params.l2, &dramModel, &grp),
      requests(&grp, "requests", "transactions entering the L2 side")
{
}

void
MemSystem::attachTrace(trace::TraceSink &sink,
                       const std::string &prefix)
{
    traceChan = sink.channel(prefix + "memsys");
}

MemResult
MemSystem::access(Tick issue, Addr addr, AccessKind kind,
                  unsigned bytes)
{
    ++requests;
    MemResult r = l2Cache.access(issue + icnLat, addr, kind, bytes);
    if (kind != AccessKind::Write)
        r.complete += icnLat; // response network crossing
    sim::checkMemCompletion("memsys", issue, r.complete);
    TRACE_EVENT_SPAN(traceChan, trace::Category::Mem,
                     kind == AccessKind::Write ||
                             kind == AccessKind::WriteNoAlloc
                         ? "write"
                         : "read",
                     issue, r.complete, bytes);
    return r;
}

} // namespace scusim::mem
