#include "gpu/sm.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "common/logging.hh"
#include "sim/check.hh"
#include "trace/trace.hh"

namespace scusim::gpu
{

StreamingMultiprocessor::StreamingMultiprocessor(
    const GpuParams &params, unsigned id, mem::MemLevel *shared_mem,
    stats::StatGroup *parent)
    : p(params), smId(id), sharedMem(shared_mem),
      l1Cache(params.l1, shared_mem, parent),
      outstandingLoads(params.maxOutstanding),
      grp(std::string("sm") + std::to_string(id), parent),
      smActiveCycles(&grp, "active_cycles",
                     "cycles with at least one resident warp"),
      issuedInstrs(&grp, "issued_instrs", "warp instructions issued"),
      issueStallCycles(&grp, "issue_stalls",
                       "cycles with residents but nothing issuable")
{
    panic_if(p.maxResidentWarps() > kMaxWarpSlots,
             "maxResidentWarps %u exceeds the %u-slot ready mask",
             p.maxResidentWarps(), kMaxWarpSlots);
    warps.resize(p.maxResidentWarps());
    for (unsigned i = p.maxResidentWarps(); i-- > 0;)
        freeWarps.push_back(static_cast<std::uint8_t>(i));
    body.reserve(p.maxResidentWarps());
    wBlocked.reserve(p.maxResidentWarps());
    wPc.reserve(p.maxResidentWarps());
    wComputeLeft.reserve(p.maxResidentWarps());
    wNumInstrs.reserve(p.maxResidentWarps());
    farHeap.reserve(p.maxResidentWarps());
}

void
StreamingMultiprocessor::beginKernel(WarpSource source,
                                     KernelStats *sink)
{
    panic_if(!body.empty(), "beginKernel on a busy SM");
    warpSource = std::move(source);
    kstats = sink;
    sourceDry = false;
    refill();
    // New work arrived outside tick(): re-arm the event-driven
    // scheduler so the launch is picked up without a full rescan.
    notifyWake();
}

void
StreamingMultiprocessor::endKernel(Tick now)
{
    panic_if(busy(now) || nextWakeTick() != tickNever,
             "endKernel on a busy SM");
    warpSource = nullptr;
    kstats = nullptr;
    // The MSHR high-water trace counter tracks one kernel's FIFO
    // peak, not a monotone across launches.
    mshrHighWater = 0;
    // GPU L1s are not kept coherent across kernel launches.
    l1Cache.invalidateAll(now);
}

void
StreamingMultiprocessor::refill()
{
    while (!sourceDry && body.size() < p.maxResidentWarps()) {
        // Build in place into a free warp: its vectors keep their
        // capacity, so steady-state refills allocate nothing.
        Warp &w = warps[freeWarps.back()];
        w.instrs.clear();
        w.addrs.clear();
        w.pc = 0;
        w.computeLeft = 0;
        w.blockedUntil = 0;
        w.threads = 0;
        if (!warpSource || !warpSource(w)) {
            sourceDry = true;
            break;
        }
        if (kstats) {
            ++kstats->warps;
            kstats->threads += w.threads;
        }
        const std::size_t s = body.size();
        const std::uint64_t bit = std::uint64_t{1} << s;
        body.push_back(freeWarps.back());
        slotOf[freeWarps.back()] = static_cast<std::uint8_t>(s);
        freeWarps.pop_back();
        wBlocked.push_back(w.blockedUntil);
        wPc.push_back(static_cast<std::uint32_t>(w.pc));
        wComputeLeft.push_back(w.computeLeft);
        wNumInstrs.push_back(
            static_cast<std::uint32_t>(w.instrs.size()));
        if (wPc[s] >= wNumInstrs[s])
            doneMask |= bit;
        // A slot arriving blocked in the past is promoted by the
        // next advanceReady(); nothing reads the masks in between.
        if (wBlocked[s] == 0)
            readyMask |= bit;
        else
            pushFar(s, wBlocked[s]);
    }
    recomputeWake();
}

void
StreamingMultiprocessor::pushFar(std::size_t s, Tick until)
{
    panic_if(until >> (64 - kFarWarpBits),
             "blockedUntil %llu overflows the far-heap key",
             static_cast<unsigned long long>(until));
    farHeap.push_back(until << kFarWarpBits | body[s]);
    std::push_heap(farHeap.begin(), farHeap.end(), std::greater<>{});
    farMin = std::min(farMin, until);
    blockedMin = std::min(blockedMin, until);
}

void
StreamingMultiprocessor::advanceReady(Tick now)
{
    if (blockedMin <= now) {
        if (nearMin <= now) {
            // The due buckets are (wheelBase, min(now, wheelBase +
            // kNearHorizon)]: rotate bucket wheelBase + 1 to bit 0.
            const int first =
                static_cast<int>((wheelBase + 1) % kWheelBuckets);
            const Tick span = std::min(now - wheelBase, kNearHorizon);
            for (std::uint64_t due = std::rotr(wheelOcc, first) &
                                     maskLow(static_cast<unsigned>(span));
                 due; due &= due - 1) {
                const unsigned b = (first + ctz64(due)) % kWheelBuckets;
                for (std::uint64_t w = wheel[b]; w; w &= w - 1)
                    readyMask |= std::uint64_t{1} << slotOf[ctz64(w)];
                wheel[b] = 0;
                wheelOcc &= ~(std::uint64_t{1} << b);
            }
            // What is left lies in (now, now + kNearHorizon].
            const int next = static_cast<int>((now + 1) % kWheelBuckets);
            nearMin = wheelOcc ? now + 1 + ctz64(std::rotr(wheelOcc, next))
                               : tickNever;
        }
        if (farMin <= now) {
            constexpr std::uint64_t warp_mask = kMaxWarpSlots - 1;
            while (!farHeap.empty() &&
                   (farHeap.front() >> kFarWarpBits) <= now) {
                readyMask |= std::uint64_t{1}
                             << slotOf[farHeap.front() & warp_mask];
                std::pop_heap(farHeap.begin(), farHeap.end(),
                              std::greater<>{});
                farHeap.pop_back();
            }
            farMin = farHeap.empty() ? tickNever
                                     : farHeap.front() >> kFarWarpBits;
        }
        blockedMin = std::min(nearMin, farMin);
    }
    // No wheel entry is <= now, so the entries (all added at or after
    // the old base) lie in (now, now + kNearHorizon].
    wheelBase = now;
    if constexpr (sim::checksEnabled)
        checkPromotion(now);
}

void
StreamingMultiprocessor::checkPromotion(Tick now) const
{
    std::uint64_t due = 0;
    for (std::size_t s = 0; s < body.size(); ++s) {
        if (wBlocked[s] <= now)
            due |= std::uint64_t{1} << s;
    }
    sim_check(readyMask == due,
              "sm%u promoted set %#llx at tick %llu disagrees with the "
              "linear scan %#llx",
              smId, static_cast<unsigned long long>(readyMask),
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(due));
    std::uint64_t in_wheel = 0;
    for (const std::uint64_t b : wheel) {
        sim_check(!(in_wheel & b), "sm%u: a warp sits in two wheel "
                                   "buckets", smId);
        in_wheel |= b;
    }
    std::uint64_t in_heap = 0;
    for (const std::uint64_t e : farHeap)
        in_heap |= std::uint64_t{1} << (e & (kMaxWarpSlots - 1));
    sim_check(!(in_wheel & in_heap),
              "sm%u: warps %#llx sit in both the wheel and the heap",
              smId, static_cast<unsigned long long>(in_wheel & in_heap));
}

void
StreamingMultiprocessor::recomputeWake()
{
    // blockedMin already covers the blocked slots exactly; folding in
    // the ready slots' (stale-low) blockedUntil reproduces the full
    // min without touching the non-resident tail.
    Tick t = blockedMin;
    for (std::uint64_t m = readyMask; m; m &= m - 1)
        t = std::min(t, wBlocked[ctz64(m)]);
    wakeCache = t;
    if constexpr (sim::checksEnabled) {
        Tick lin = tickNever;
        for (const Tick b : wBlocked)
            lin = std::min(lin, b);
        sim_check(wakeCache == lin,
                  "mask-folded wake %llu disagrees with linear scan "
                  "%llu (blockedMin invariant broken)",
                  static_cast<unsigned long long>(wakeCache),
                  static_cast<unsigned long long>(lin));
    }
}

bool
StreamingMultiprocessor::busy(Tick now) const
{
    // Busy if a warp can issue or retire this cycle; warps that are
    // merely blocked on memory make the SM wake-able, not busy, so
    // the simulation fast-forwards over pure stall intervals.
    if (body.empty())
        return !sourceDry && warpSource != nullptr;
    return wakeCache <= now;
}

Tick
StreamingMultiprocessor::nextWakeTick() const
{
    return body.empty() ? tickNever : wakeCache;
}

Tick
StreamingMultiprocessor::executeMem(const WarpInstr &wi,
                                    std::span<const Addr> lanes,
                                    Tick now)
{
    // Coalesce the active lanes into line transactions. Atomics
    // cannot merge lanes: each distinct address is its own
    // read-modify-write at the L2.
    txnScratch.clear();
    std::size_t txns;
    if (wi.kind == ThreadOp::Kind::Atomic) {
        txns = mem::appendUniqueAddrs(lanes, wi.laneMask, txnScratch);
    } else {
        txns = mem::coalesceLanes(lanes, wi.laneMask, p.l1.lineBytes,
                                  txnScratch);
    }

    if (kstats) {
        ++kstats->warpMemInstrs;
        kstats->memTransactions += txns;
        kstats->memLanes += popcount64(wi.laneMask);
    }

    // The LSU injects transactions at its throughput.
    Tick start = std::max(now, lsuFree);
    lsuFree = start + (txns + p.lsuThroughput - 1) / p.lsuThroughput;

    Tick complete = start;
    Tick inject = start;
    for (Addr line : txnScratch) {
        if (wi.kind == ThreadOp::Kind::Load) {
            // Respect the outstanding-transaction budget.
            outstandingLoads.purgeUpTo(inject);
            if (outstandingLoads.size() >= p.maxOutstanding) {
                inject = std::max(inject, outstandingLoads.min());
                outstandingLoads.popMin();
            }
            auto r = l1Cache.access(inject, line,
                                    mem::AccessKind::Read,
                                    p.l1.lineBytes);
            outstandingLoads.push(r.complete);
            // MSHR occupancy high-water mark, for the FIFO track.
            if (outstandingLoads.size() > mshrHighWater) {
                mshrHighWater = outstandingLoads.size();
                TRACE_EVENT_COUNTER(traceChan, trace::Category::Fifo,
                                    "outstanding_loads", inject,
                                    mshrHighWater);
            }
            complete = std::max(complete, r.complete);
        } else if (wi.kind == ThreadOp::Kind::Store) {
            auto r = l1Cache.access(inject, line,
                                    mem::AccessKind::Write,
                                    p.l1.lineBytes);
            complete = std::max(complete, inject + 1);
            (void)r;
        } else { // Atomic: performed at the L2, bypassing the L1.
            auto r = sharedMem->access(inject, line,
                                       mem::AccessKind::Atomic,
                                       wi.bytesPerLane);
            // Posted from the warp's perspective (no return value
            // consumed by our kernels), but the L2 bank occupancy
            // and DRAM traffic are fully accounted.
            complete = std::max(complete, inject + 1);
            (void)r;
        }
        ++inject;
    }
    return complete;
}

void
StreamingMultiprocessor::issueSlot(std::size_t s, Tick now)
{
    const Warp &b = warps[body[s]];
    const WarpInstr &wi = b.instrs[wPc[s]];
    ++issuedInstrs;
    if (kstats) {
        ++kstats->warpInstrs;
        kstats->threadInstrs +=
            (wi.kind == ThreadOp::Kind::Compute)
                ? b.threads
                : popcount64(wi.laneMask);
    }

    Tick blocked_until;
    if (wi.kind == ThreadOp::Kind::Compute) {
        if (wComputeLeft[s] == 0)
            wComputeLeft[s] = wi.computeCount;
        if (--wComputeLeft[s] == 0 && ++wPc[s] >= wNumInstrs[s])
            doneMask |= std::uint64_t{1} << s;
        // Dependent issue: the warp waits out the ALU result
        // latency before its next instruction.
        blocked_until = now + p.depIssueLatency;
    } else {
        const Tick complete = executeMem(wi, b.laneAddrs(wi), now);
        if (++wPc[s] >= wNumInstrs[s])
            doneMask |= std::uint64_t{1} << s;
        blocked_until = wi.kind == ThreadOp::Kind::Load
                            ? complete
                            : now + p.depIssueLatency;
    }
    wBlocked[s] = blocked_until;
    if (blocked_until > now) {
        readyMask &= ~(std::uint64_t{1} << s);
        if (blocked_until - now > kNearHorizon) {
            pushFar(s, blocked_until);
        } else {
            const unsigned b =
                static_cast<unsigned>(blocked_until) % kWheelBuckets;
            wheel[b] |= std::uint64_t{1} << body[s];
            wheelOcc |= std::uint64_t{1} << b;
            nearMin = std::min(nearMin, blocked_until);
            blockedMin = std::min(blockedMin, blocked_until);
        }
    }
}

void
StreamingMultiprocessor::compactRetired(std::uint64_t retire)
{
    for (std::uint64_t m = retire; m; m &= m - 1)
        freeWarps.push_back(body[ctz64(m)]);
    // Remove one slot at a time from the highest down, so each shift
    // leaves the lower retired slots where they are.
    for (std::uint64_t m = retire; m;) {
        const unsigned r = 63 - static_cast<unsigned>(std::countl_zero(m));
        m &= ~(std::uint64_t{1} << r);
        body.erase(body.begin() + r);
        wBlocked.erase(wBlocked.begin() + r);
        wPc.erase(wPc.begin() + r);
        wComputeLeft.erase(wComputeLeft.begin() + r);
        wNumInstrs.erase(wNumInstrs.begin() + r);
        const std::uint64_t low = maskLow(r);
        readyMask = (readyMask & low) | ((readyMask >> 1) & ~low);
        doneMask = (doneMask & low) | ((doneMask >> 1) & ~low);
    }
    // Retired slots were all ready, so the wheel, the heap and the
    // blocked minima are unchanged; only the moved warps' slots are.
    for (std::size_t k = ctz64(retire); k < body.size(); ++k)
        slotOf[body[k]] = static_cast<std::uint8_t>(k);
}

void
StreamingMultiprocessor::tick(Tick now)
{
    if (body.empty()) {
        refill();
        if (body.empty())
            return;
        noteProgress(body.size());
    }
    advanceReady(now);
    smActiveCycles += 1;

    // Round-robin over the residents starting at the cursor, walking
    // only the slots that can actually issue: set bits of
    // ready & ~done, rotated so slots >= start go first. ctz visits
    // each half in ascending slot order, which is exactly a linear
    // rotated scan's visit order restricted to issuable slots. A
    // wholly-blocked mask makes both loops vanish without touching
    // the warp arrays.
    unsigned issued = 0;
    const std::size_t n = body.size();
    const std::size_t start = rrCursor % n;
    const std::uint64_t cand = readyMask & ~doneMask;
    for (std::uint64_t m =
             cand & ~maskLow(static_cast<unsigned>(start));
         m && issued < p.issueWidth; m &= m - 1) {
        issueSlot(ctz64(m), now);
        ++issued;
    }
    for (std::uint64_t m =
             cand & maskLow(static_cast<unsigned>(start));
         m && issued < p.issueWidth; m &= m - 1) {
        issueSlot(ctz64(m), now);
        ++issued;
    }
    rrCursor = start + 1 == n ? 0 : start + 1;
    if (issued)
        noteProgress(issued);
    else
        issueStallCycles += 1;

    // Retire finished warps — a warp with its last memory access
    // still in flight stays resident until it completes (its ready
    // bit was cleared when the access issued, so done & ready is
    // precisely "done with nothing in flight").
    const std::uint64_t retire = readyMask & doneMask;
    const std::size_t retired = popcount64(retire);
    if (retire)
        compactRetired(retire);
    const std::size_t low = body.size();
    refill();
    const std::size_t added = body.size() - low;
    if (retired + added)
        noteProgress(retired + added);
}

} // namespace scusim::gpu
