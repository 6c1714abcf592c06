#include "scu/pipeline.hh"

#include <algorithm>
#include <functional>

#include "sim/check.hh"

namespace scusim::scu
{

namespace
{
constexpr Addr noLine = static_cast<Addr>(-1);
} // namespace

void
InflightWindow::clear(Tick new_base)
{
    for (Tick k = base; ringCount; ++k) {
        ringCount -= ring[k & kRingMask];
        ring[k & kRingMask] = 0;
    }
    far.clear();
    base = new_base;
}

void
InflightWindow::purgeUpTo(Tick t)
{
    while (!far.empty() && far.front() <= t) {
        std::pop_heap(far.begin(), far.end(), std::greater<Tick>());
        far.pop_back();
    }
    if (t < base)
        return;
    // The ring holds [base, base + kRingTicks); sweep the part up to
    // t, and stop early once it is empty.
    const Tick last = std::min(t, base + kRingMask);
    for (Tick k = base; ringCount && k <= last; ++k) {
        ringCount -= ring[k & kRingMask];
        ring[k & kRingMask] = 0;
    }
    base = t;
}

Tick
InflightWindow::popMin()
{
    Tick k = base;
    if (ringCount) {
        while (!ring[k & kRingMask])
            ++k;
    }
    if (!far.empty() && (!ringCount || far.front() < k)) {
        k = far.front();
        std::pop_heap(far.begin(), far.end(), std::greater<Tick>());
        far.pop_back();
    } else {
        --ring[k & kRingMask];
        --ringCount;
    }
    // Nothing is earlier than the minimum, so the cursor may jump.
    base = std::max(base, k);
    return k;
}

void
InflightWindow::pushFar(Tick c)
{
    far.push_back(c);
    std::push_heap(far.begin(), far.end(), std::greater<Tick>());
}

ScuPipeline::ScuPipeline(const ScuParams &params, mem::MemSystem &m,
                         InflightWindow &window, Tick start)
    : p(params), mem(m), inflight(window),
      lineBytes(m.l2().params().lineBytes),
      startTick(start + params.opSetupCycles),
      txnIssue(startTick), memReady(startTick),
      lastGatherLine(noLine), lastWriteLine(noLine),
      lastHashLine(noLine)
{
    lastLine.fill(noLine);
    inflight.clear(startTick);
}

std::size_t
ScuPipeline::inflightLimit() const
{
    // The Data Fetch FIFO (38 KB, Table 1) tracks outstanding read
    // requests at 4 B per descriptor: the unit tolerates full memory
    // latency with thousands of requests in flight. (The coalescing
    // unit's 32-entry figure is its merge CAM, modeled by the
    // line-merge checks.) The L2 MSHRs bound realized parallelism.
    return static_cast<std::size_t>(p.fifoRequestBytes / 4);
}

Tick
ScuPipeline::portTick(std::uint64_t issued) const
{
    // Each port sustains pipelineWidth transactions per cycle, so a
    // width-4 SCU can keep four elements per cycle moving even when
    // every element needs its own hash probe.
    return startTick + issued / std::max(1u, p.pipelineWidth);
}

void
ScuPipeline::issueRead(Addr line_addr, unsigned bytes)
{
    Tick t = std::max(txnIssue, portTick(readsIssued));
    ++readsIssued;
    inflight.purgeUpTo(t);
    if (inflight.size() >= inflightLimit())
        t = std::max(t, inflight.popMin());
    // Streaming data has no reuse: bypass L2 allocation so the
    // in-memory hash tables stay cache resident.
    auto r = mem.access(t, line_addr, mem::AccessKind::ReadNoAlloc,
                        bytes);
    inflight.push(r.complete);
    traffic.maxInflight =
        std::max<std::uint64_t>(traffic.maxInflight, inflight.size());
    sim::checkOccupancy("scu inflight window", inflight.size(),
                        inflightLimit());
    memReady = std::max(memReady, r.complete);
    txnIssue = t;
    ++traffic.readTxns;
}

void
ScuPipeline::readLines(Addr &last, Addr addr, unsigned bytes)
{
    Addr line = alignDown(addr, lineBytes);
    Addr end_line = alignDown(addr + bytes - 1, lineBytes);
    for (Addr l = line; l <= end_line; l += lineBytes) {
        if (l != last) {
            issueRead(l, lineBytes);
            last = l;
        }
    }
}

void
ScuPipeline::gatherSectors(Addr addr, unsigned bytes)
{
    // Gathers fetch 32 B sectors: sparse accesses must not pay for
    // (or occupy the bus with) a full line of mostly-unused data.
    Addr first = alignDown(addr, kSectorBytes);
    Addr last_sector = alignDown(addr + bytes - 1, kSectorBytes);
    for (Addr sctr = first; sctr <= last_sector; sctr += kSectorBytes) {
        if (sctr != lastGatherLine) {
            issueRead(sctr, kSectorBytes);
            lastGatherLine = sctr;
        }
    }
}

void
ScuPipeline::writeLines(Addr addr, unsigned bytes)
{
    Addr line = alignDown(addr, lineBytes);
    Addr end_line = alignDown(addr + bytes - 1, lineBytes);
    for (Addr l = line; l <= end_line; l += lineBytes) {
        if (l != lastWriteLine) {
            // Posted write through the Data Store's own port; it
            // reserves memory occupancy but nothing waits on it.
            // Allocating write: the compacted output is consumed by
            // the GPU right after the operation, so it flows through
            // the (shared) L2.
            Tick t = portTick(storesIssued);
            ++storesIssued;
            mem.access(t, l, mem::AccessKind::Write, lineBytes);
            ++traffic.writeTxns;
            lastWriteLine = l;
        }
    }
}

void
ScuPipeline::hashAccess(Addr addr, bool write, unsigned read_bytes)
{
    // One probe event per element: the filtering/grouping unit reads
    // the set and, if needed, updates the entry in the same pipelined
    // probe, so the port advances once regardless. Transfers are
    // sector granular (the probed set, not a whole line).
    Addr line = alignDown(addr, lineBytes);
    Tick t = portTick(hashIssued);
    ++hashIssued;
    if (line != lastHashLine) {
        auto r = mem.access(t, line, mem::AccessKind::Read,
                            read_bytes);
        memReady = std::max(memReady, r.complete);
        ++traffic.hashReadTxns;
        lastHashLine = line;
    }
    if (write) {
        mem.access(t, line, mem::AccessKind::Write, 32);
        ++traffic.hashWriteTxns;
    }
}

Tick
ScuPipeline::finish()
{
    const Tick throughput =
        startTick + divCeil(traffic.elements,
                            std::max(1u, p.pipelineWidth));
    const Tick ports =
        std::max({portTick(readsIssued), portTick(storesIssued),
                  portTick(hashIssued)});
    return std::max({throughput, memReady, txnIssue, ports}) +
           p.opDrainCycles;
}

} // namespace scusim::scu
