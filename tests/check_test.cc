/**
 * @file
 * Death tests for the SCUSIM_CHECK invariant layer (sim/check.hh).
 * Each test drives a real component into a contract violation and
 * asserts the checked build panics. In unchecked builds the layer is
 * compiled out, so every test skips (the checks' *absence* there is
 * itself part of the contract: Release timing runs pay nothing).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/bits.hh"
#include "gpu/sm.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "mem/request.hh"
#include "scu/hash_table.hh"
#include "sim/check.hh"
#include "sim/clock.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;

namespace scusim::gpu
{

/** Reaches into an SM's promotion state to corrupt it. */
class SmTestPeer
{
  public:
    /** Empty the lowest occupied wheel bucket; false if none is. */
    static bool
    dropWheelBucket(StreamingMultiprocessor &sm)
    {
        if (!sm.wheelOcc)
            return false;
        sm.wheel[ctz64(sm.wheelOcc)] = 0;
        return true;
    }
};

} // namespace scusim::gpu

namespace
{

#define SKIP_UNLESS_CHECKED()                                           \
    do {                                                                \
        if (!sim::checksEnabled)                                        \
            GTEST_SKIP() << "SCUSIM_CHECK not compiled in";             \
    } while (0)

TEST(CheckDeath, EventQueueRejectsSchedulingIntoThePast)
{
    SKIP_UNLESS_CHECKED();
    sim::EventQueue q;
    q.serviceUpTo(100);
    // At the horizon is legal (an event for the current tick)...
    q.schedule(100, [](Tick) {});
    // ...but strictly before it would fire at the wrong time.
    EXPECT_DEATH(q.schedule(99, [](Tick) {}),
                 "scheduled into the past");
}

struct NullClocked : sim::Clocked
{
    void tick(Tick) override {}
    bool busy(Tick) const override { return false; }
};

TEST(CheckDeath, ClockedTickMustBeMonotonic)
{
    SKIP_UNLESS_CHECKED();
    NullClocked c;
    c.noteTick(10);
    c.noteTick(10); // same tick twice is fine
    EXPECT_DEATH(c.noteTick(9), "ticked backwards");
}

/** A memory level whose completions travel backwards in time. */
struct BrokenLevel : mem::MemLevel
{
    mem::MemResult
    access(Tick issue, Addr, mem::AccessKind, unsigned) override
    {
        return {issue - 10, true};
    }
};

TEST(CheckDeath, MemCompletionNeverPrecedesIssue)
{
    SKIP_UNLESS_CHECKED();
    BrokenLevel broken;
    stats::StatGroup root("t");
    mem::Cache c(mem::CacheParams{}, &broken, &root);
    // A cold read misses and fills from the broken downstream.
    EXPECT_DEATH(c.access(100, 0, mem::AccessKind::Read, 4),
                 "precedes issue tick");
}

TEST(CheckDeath, CacheAccessBeforeTheClockPanics)
{
    SKIP_UNLESS_CHECKED();
    // The in-flight table drops fills completed by the clock, which
    // is sound only while no access is issued before it.
    BrokenLevel unused;
    stats::StatGroup root("t");
    mem::Cache c(mem::CacheParams{}, &unused, &root);
    sim::Simulation clock;
    clock.advanceTo(100);
    c.setClock(&clock);
    c.access(100, 0, mem::AccessKind::Write, 4); // at the clock is fine
    EXPECT_DEATH(c.access(99, 0, mem::AccessKind::Write, 4),
                 "before the clock");
}

TEST(CheckDeath, HashSetIndexStaysInBounds)
{
    SKIP_UNLESS_CHECKED();
    mem::AddressSpace as(1ULL << 28);
    scu::UniqueFilterTable t({4096, 4, 4}, as, "h");
    EXPECT_EQ(t.setAddr(0), t.baseAddr());
    EXPECT_DEATH(t.setAddr(t.numSets()), "out of");
}

TEST(CheckDeath, DeviceArrayIndexInBounds)
{
    SKIP_UNLESS_CHECKED();
    mem::AddressSpace as(1ULL << 20);
    mem::DeviceArray<std::uint32_t> a(as, "a", 4);
    a[3] = 7;
    const auto &c = a;
    EXPECT_EQ(c[3], 7u);
    EXPECT_DEATH(a[4] = 1, "out of range");
    EXPECT_DEATH((void)c[4], "out of range");
}

TEST(CheckDeath, OccupancyAboveCapacityPanics)
{
    SKIP_UNLESS_CHECKED();
    // The grouping table's public API can never overfill a group —
    // which is exactly why the invariant exists: it guards against
    // future refactors of the eviction path. Exercise the check
    // directly at its boundary.
    sim::checkOccupancy("scu hash group", 8, 8);
    EXPECT_DEATH(sim::checkOccupancy("scu hash group", 9, 8),
                 "overfull");
}

TEST(CheckDeath, FifoCreditDriftPanics)
{
    SKIP_UNLESS_CHECKED();
    // Balanced books at every occupancy are fine...
    sim::checkFifoCredits("BoundedFifo", 8, 3, 5);
    sim::checkFifoCredits("BoundedFifo", 0, 0, 0);
    // ...a consumer ahead of its producer lost a credit...
    EXPECT_DEATH(sim::checkFifoCredits("BoundedFifo", 3, 4, 0),
                 "credit drift");
    // ...and books that do not match the queue duplicated one.
    EXPECT_DEATH(sim::checkFifoCredits("BoundedFifo", 8, 3, 4),
                 "credit drift");
}

TEST(CheckDeath, CoalescerWindowBoundsPanic)
{
    SKIP_UNLESS_CHECKED();
    // A warp's lanes merge into [1, lanes] transactions.
    sim::checkCoalesceBounds(32, 1);
    sim::checkCoalesceBounds(32, 32);
    sim::checkCoalesceBounds(0, 0);
    // Fabricated traffic: more transactions than lanes.
    EXPECT_DEATH(sim::checkCoalesceBounds(4, 5), "out of bounds");
    // Lost traffic: active lanes produced no transaction at all.
    EXPECT_DEATH(sim::checkCoalesceBounds(4, 0), "out of bounds");
}

TEST(CheckDeath, SmPromotionMatchesTheLinearScan)
{
    SKIP_UNLESS_CHECKED();
    const gpu::GpuParams params = gpu::GpuParams::tx1();
    sim::ClockDomain clk(params.freqHz);
    stats::StatGroup root("t");
    mem::MemSystem memsys(params.memsys, clk, &root);
    gpu::StreamingMultiprocessor sm(params, 0, &memsys, &root);
    auto left = std::make_shared<int>(4);
    sm.beginKernel(
        [left](gpu::Warp &out) {
            if ((*left)-- <= 0)
                return false;
            gpu::WarpInstr c;
            c.kind = gpu::ThreadOp::Kind::Compute;
            c.computeCount = 3;
            out.instrs.push_back(c);
            out.threads = 32;
            return true;
        },
        nullptr);
    // The first issues park the warps on the wheel for their ALU
    // latency; a healthy SM promotes them and keeps going.
    sm.tick(0);
    ASSERT_TRUE(gpu::SmTestPeer::dropWheelBucket(sm));
    EXPECT_DEATH(
        {
            for (Tick t = 1; t <= 4 * params.depIssueLatency; ++t)
                sm.tick(t);
        },
        "disagrees with the linear scan");
}

TEST(Check, PassingChecksAreSilent)
{
    // Valid in both checked and unchecked builds.
    sim::checkScheduleTick(5, 5);
    sim::checkMemCompletion("l2", 10, 10);
    sim::checkTickMonotonic("sm", 7, 7);
    sim::checkOccupancy("fifo", 0, 8);
    sim_check(1 + 1 == 2, "arithmetic broke");
    SUCCEED();
}

} // namespace
