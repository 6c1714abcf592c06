/**
 * @file
 * SM issue-path trajectory gate. A standalone SM rig is driven tick by
 * tick over a synthetic warp program (coalesced and divergent loads,
 * stores, atomics, divergent-length compute, more warps than resident
 * slots). Every tick the drive visits folds the tick, busy() and
 * nextWakeTick(), and every serviced tick the active-cycle count,
 * into an FNV-1a digest; the drive's kernel stats and full stats dump
 * are folded in at the end. Each
 * drive's digest is pinned to the value the SoA+mask issue path and
 * the linear reference scan it replaced both produced, so any change
 * to when a warp issues, blocks, wakes or retires fails here.
 * Whole-run stats dumps are pinned by ModelGolden in
 * determinism_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "common/hash.hh"
#include "gpu/sm.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using gpu::StreamingMultiprocessor;

namespace
{

/** Edits a rig's parameters before anything is built from them. */
using ParamTweak = std::function<void(gpu::GpuParams &)>;

gpu::GpuParams
tx1With(const ParamTweak &tweak)
{
    gpu::GpuParams p = gpu::GpuParams::tx1();
    if (tweak)
        tweak(p);
    return p;
}

/** A standalone SM on its own memory system, stat tree and
 *  Simulation. */
struct SmRig
{
    explicit SmRig(const ParamTweak &tweak = {})
        : params(tx1With(tweak)),
          clk(params.freqHz), root("t"),
          mem(params.memsys, clk, &root),
          sm(params, 0, &mem, &root)
    {
        sim.addClocked(&sm, "sm0");
    }

    std::string
    dump()
    {
        std::ostringstream os;
        root.dumpAll(os);
        return os.str();
    }

    gpu::GpuParams params;
    sim::ClockDomain clk;
    stats::StatGroup root;
    sim::Simulation sim;
    mem::MemSystem mem;
    StreamingMultiprocessor sm;
};

/**
 * Deterministic synthetic warp @p i: a mix of compute runs,
 * coalesced/divergent loads, stores with partial lane masks and
 * atomics, long enough to overlap memory latencies across warps.
 */
void
buildTestWarp(std::uint64_t i, gpu::Warp &out)
{
    const unsigned threads = (i % 5 == 4) ? 17 : 32;
    out.threads = threads;
    const std::uint64_t full = maskLow(threads);

    auto mem_instr = [&](gpu::ThreadOp::Kind kind, std::uint64_t mask,
                         auto addr_of) {
        const std::span<Addr> slots =
            out.appendMem(kind, mask & full);
        for (std::uint64_t m = mask & full; m; m &= m - 1) {
            const unsigned l = ctz64(m);
            slots[l] = addr_of(l);
        }
    };

    gpu::WarpInstr c;
    c.kind = gpu::ThreadOp::Kind::Compute;
    c.computeCount = 1 + static_cast<std::uint32_t>(i % 4);
    out.instrs.push_back(c);

    switch (i % 4) {
    case 0: // coalesced load stream
        mem_instr(gpu::ThreadOp::Kind::Load, full, [&](unsigned l) {
            return Addr{0x100000} + i * 0x80 + l * 4;
        });
        break;
    case 1: // divergent load scatter
        mem_instr(gpu::ThreadOp::Kind::Load, full, [&](unsigned l) {
            return (mixBits(i * 64 + l) & 0xFFFFF) * 64;
        });
        break;
    case 2: // partial-mask store (odd lanes only)
        mem_instr(gpu::ThreadOp::Kind::Store, 0xAAAAAAAAAAAAAAAAull,
                  [&](unsigned l) {
                      return Addr{0x400000} + i * 0x200 + l * 8;
                  });
        break;
    default: // atomics with colliding addresses
        mem_instr(gpu::ThreadOp::Kind::Atomic, full, [&](unsigned l) {
            return Addr{0x800000} + (mixBits(l) % 7) * 4;
        });
        break;
    }

    gpu::WarpInstr c2;
    c2.kind = gpu::ThreadOp::Kind::Compute;
    c2.computeCount = 2;
    out.instrs.push_back(c2);
}

gpu::WarpSource
makeSource(std::uint64_t count)
{
    auto next = std::make_shared<std::uint64_t>(0);
    return [next, count](gpu::Warp &out) {
        if (*next >= count)
            return false;
        buildTestWarp(*next, out);
        ++*next;
        return true;
    };
}

/** What a drive went through (coverage floors) and its digest. */
struct Drive
{
    std::uint64_t serviced = 0; ///< ticks the SM was ticked
    std::uint64_t stalled = 0;  ///< of those, ticks with no active cycle
    std::uint64_t longWaits = 0; ///< fast-forwards over > 4096 ticks
    std::uint64_t digest = fnvOffsetBasis;

    void
    fold(std::uint64_t v)
    {
        digest = fnv1a(&v, sizeof v, digest);
    }
};

/** A window of ticks in which the drive leaves a busy SM unticked. */
struct Stall
{
    Tick at;
    Tick ticks;
};

/**
 * Drive a rig built with @p tweak over 3x as many synthetic warps as
 * resident slots, so retirement compaction and refill churn
 * continuously, folding each visited tick's busy() and
 * nextWakeTick(), each serviced tick's active-cycle count, then the
 * kernel stats and the full stats dump, into the returned digest.
 * Inside each of @p stalls the SM stays busy but is not ticked, as a
 * frozen issue FIFO would leave it.
 */
Drive
drive(const ParamTweak &tweak = {}, const std::vector<Stall> &stalls = {})
{
    SmRig rig(tweak);

    const std::uint64_t warps = 3 * rig.params.maxResidentWarps();
    gpu::KernelStats ks;
    rig.sm.beginKernel(makeSource(warps), &ks);

    Drive d;
    Tick now = 0;
    for (std::uint64_t iter = 0; iter < 1'000'000; ++iter) {
        const Tick wake = rig.sm.nextWakeTick();
        const bool busy = rig.sm.busy(now);
        d.fold(now);
        d.fold(busy);
        d.fold(wake);
        if (busy) {
            const double active = rig.sm.activeCycles();
            const bool stalled =
                std::any_of(stalls.begin(), stalls.end(),
                            [now](const Stall &s) {
                                return now >= s.at &&
                                       now < s.at + s.ticks;
                            });
            if (!stalled)
                rig.sm.tick(now);
            d.fold(static_cast<std::uint64_t>(rig.sm.activeCycles()));
            d.stalled += rig.sm.activeCycles() == active;
            ++d.serviced;
            ++now;
            continue;
        }
        if (wake == tickNever)
            break;
        d.longWaits += wake > now + 4096;
        now = std::max(now + 1, wake); // fast-forward a pure stall
    }
    EXPECT_GT(d.serviced, warps); // the drive actually ran work
    if (rig.sm.busy(now) || rig.sm.nextWakeTick() != tickNever) {
        // A lost wake-up keeps the SM busy forever: fail the drive
        // (and its digest) instead of endKernel's busy-SM panic.
        ADD_FAILURE() << "the SM had not drained by tick " << now;
        return d;
    }
    rig.sm.endKernel(now);

    EXPECT_EQ(ks.warps, warps);
    for (const std::uint64_t v :
         {ks.warps, ks.threads, ks.warpInstrs, ks.threadInstrs,
          ks.warpMemInstrs, ks.memTransactions, ks.memLanes})
        d.fold(v);
    const std::string dump = rig.dump();
    EXPECT_FALSE(dump.empty());
    d.digest = fnv1a(dump.data(), dump.size(), d.digest);
    return d;
}

/** Pin @p d's digest, printed in hex on a mismatch. */
void
expectDigest(const Drive &d, std::uint64_t want)
{
    EXPECT_EQ(d.digest, want)
        << "SM trajectory changed: digest 0x" << std::hex << d.digest;
}

TEST(SmTickEquivalence, LockstepTrajectoryAndFinalStatsMatch)
{
    expectDigest(drive(), 0x6d5ff5b5d9460e4dull);
}

/**
 * The variants below run GTX980-sized residency (64 slots) on the TX1
 * rig, so warp indices and slots span the full 64-bit masks.
 */
void
allSlots(gpu::GpuParams &p)
{
    p.maxThreadsPerSm = 2048;
}

TEST(SmTickEquivalence, LoadsBlockedPastFourThousandTicks)
{
    // A slow interconnect makes every L2 round trip longer than 4096
    // ticks, far past the near horizon, so whole-SM stalls end only
    // when the far heap's loads come back.
    const Drive d = drive([](gpu::GpuParams &p) {
        allSlots(p);
        p.memsys.icnLatency = 2100;
    });
    EXPECT_GE(d.longWaits, 40u); // 48 when written
    expectDigest(d, 0xd751a4f818c5c435ull);
}

TEST(SmTickEquivalence, FifoStallLongerThanTheNearHorizonResumes)
{
    // Twice mid-kernel the SM's issue FIFO freezes for 300 ticks:
    // the wheel is not walked meanwhile, and on resumption every ALU
    // wait it holds has long come due. The second drive's ALU waits
    // last exactly the near horizon, so they sit in the last bucket
    // a resumed walk may visit.
    const std::vector<Stall> stall{{100, 300}, {1500, 300}};
    const Drive d = drive(allSlots, stall);
    EXPECT_GE(d.stalled, 250u); // 313 when written
    expectDigest(d, 0x2ce6082c8e69fdcaull);
    const Drive edge = drive(
        [](gpu::GpuParams &p) {
            allSlots(p);
            p.depIssueLatency = StreamingMultiprocessor::kNearHorizon;
        },
        stall);
    EXPECT_GE(edge.stalled, 500u); // 595 when written
    expectDigest(edge, 0xc7a91b44ff164be0ull);
}

TEST(SmTickEquivalence, DependentLatencyPastTheNearHorizon)
{
    // Every ALU wait outlasts the near horizon, so all blocked warps
    // go through the far heap.
    const Drive d = drive([](gpu::GpuParams &p) {
        allSlots(p);
        p.depIssueLatency = StreamingMultiprocessor::kNearHorizon + 13;
    });
    EXPECT_GE(d.serviced, 900u); // 975 when written
    expectDigest(d, 0x3dfb85e429edf523ull);
}

TEST(SmTickEquivalence, WarpArrivingBlockedIsPromotedIdentically)
{
    // A warp whose handoff state starts blocked in the future
    // exercises the blocked-at-refill branch of the mask
    // bookkeeping.
    SmRig rig;
    auto next = std::make_shared<int>(0);
    rig.sm.beginKernel(
        [next](gpu::Warp &out) {
            if ((*next)++ > 0)
                return false;
            gpu::WarpInstr c;
            c.kind = gpu::ThreadOp::Kind::Compute;
            c.computeCount = 1;
            out.instrs.push_back(c);
            out.threads = 32;
            out.blockedUntil = 25;
            return true;
        },
        nullptr);
    EXPECT_FALSE(rig.sm.busy(0));
    EXPECT_EQ(rig.sm.nextWakeTick(), 25u);
    EXPECT_TRUE(rig.sm.busy(25));
    rig.sm.tick(25); // issues the single compute op
    // One dependent-latency stall later the warp retires.
    const Tick done = 25 + rig.params.depIssueLatency;
    EXPECT_EQ(rig.sm.nextWakeTick(), done);
    rig.sm.tick(done);
    EXPECT_EQ(rig.sm.nextWakeTick(), tickNever);
    rig.sm.endKernel(done);
    EXPECT_EQ(rig.sm.activeCycles(), 2.0);
}

} // namespace
