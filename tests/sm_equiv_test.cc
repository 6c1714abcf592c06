/**
 * @file
 * SM issue-path equivalence gate: the SoA+mask scheduling fast path
 * must retrace exactly the trajectory of the linear reference scan.
 * Two layers of evidence, same pattern as sched_test:
 *
 *  - tick-level: two standalone SM rigs — one per SmIssuePath — are
 *    driven in lockstep over a synthetic warp program (coalesced and
 *    divergent loads, stores, atomics, divergent-length compute,
 *    more warps than resident slots) and must agree on busy(),
 *    nextWakeTick() and active-cycle count at EVERY serviced tick,
 *    then on the full stats dump at the end;
 *  - full-run: complete primitive runs under both paths produce
 *    byte-identical stats dumps for every primitive on both systems.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "common/bits.hh"
#include "gpu/sm.hh"
#include "harness/runner.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::harness;
using gpu::SmIssuePath;
using gpu::StreamingMultiprocessor;

namespace
{

/** Force every SM built during the guard's lifetime onto @p path. */
class IssuePathGuard
{
  public:
    explicit IssuePathGuard(SmIssuePath p)
    {
        StreamingMultiprocessor::overrideDefaultIssuePath(p);
    }
    ~IssuePathGuard()
    {
        StreamingMultiprocessor::clearDefaultIssuePathOverride();
    }
};

std::string
statsDumpFor(const RunConfig &base, SmIssuePath path)
{
    IssuePathGuard guard(path);
    RunConfig cfg = base;
    std::ostringstream os;
    cfg.dumpStatsTo = &os;
    RunResult r = runPrimitive(cfg);
    EXPECT_TRUE(r.validated)
        << to_string(cfg.primitive) << " on " << cfg.systemName
        << " failed functional validation";
    EXPECT_FALSE(os.str().empty());
    return os.str();
}

class SmPathEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Primitive, std::string>>
{
};

TEST_P(SmPathEquivalence, SoaAndReferenceDumpIdenticalStats)
{
    const auto [prim, system] = GetParam();

    RunConfig cfg;
    cfg.systemName = system;
    cfg.primitive = prim;
    cfg.mode = ScuMode::ScuEnhanced;
    cfg.dataset = "cond";
    cfg.scale = 0.01;

    const std::string soa =
        statsDumpFor(cfg, SmIssuePath::SoaMasked);
    const std::string ref =
        statsDumpFor(cfg, SmIssuePath::Reference);
    ASSERT_EQ(soa.size(), ref.size());
    EXPECT_EQ(soa, ref)
        << "the SoA+mask issue path changed the simulation";
}

INSTANTIATE_TEST_SUITE_P(
    AllPrimitivesBothSystems, SmPathEquivalence,
    ::testing::Combine(::testing::Values(Primitive::Bfs,
                                         Primitive::Sssp,
                                         Primitive::Pr),
                       ::testing::Values(std::string("GTX980"),
                                         std::string("TX1"))),
    [](const auto &info) {
        return to_string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

TEST(SmIssuePath_, DefaultResolutionOrder)
{
    ::unsetenv("SCUSIM_SM_PATH");
    EXPECT_EQ(StreamingMultiprocessor::defaultIssuePath(),
              SmIssuePath::SoaMasked);
    ::setenv("SCUSIM_SM_PATH", "reference", 1);
    EXPECT_EQ(StreamingMultiprocessor::defaultIssuePath(),
              SmIssuePath::Reference);
    ::setenv("SCUSIM_SM_PATH", "soa", 1);
    EXPECT_EQ(StreamingMultiprocessor::defaultIssuePath(),
              SmIssuePath::SoaMasked);
    // The process-wide override out-ranks the environment.
    ::setenv("SCUSIM_SM_PATH", "soa", 1);
    StreamingMultiprocessor::overrideDefaultIssuePath(
        SmIssuePath::Reference);
    EXPECT_EQ(StreamingMultiprocessor::defaultIssuePath(),
              SmIssuePath::Reference);
    StreamingMultiprocessor::clearDefaultIssuePathOverride();
    ::unsetenv("SCUSIM_SM_PATH");
}

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

/**
 * A standalone SM on its own memory system, stat tree and
 * Simulation, latched to one issue path at construction.
 */
struct SmRig
{
    explicit SmRig(SmIssuePath path, const ParamTweak &tweak = {})
        : guard(path), params(tx1With(tweak)),
          clk(params.freqHz), root("t"),
          mem(params.memsys, clk, &root),
          sm(params, 0, &mem, &root, &sim)
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

    IssuePathGuard guard; ///< active while `sm` resolves its path
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

/** What a lockstep drive went through, for coverage floors. */
struct LockstepCoverage
{
    std::uint64_t serviced = 0; ///< ticks both SMs were ticked
    std::uint64_t stalled = 0;  ///< of those, ticks a fault froze
    std::uint64_t longWaits = 0; ///< fast-forwards over > 4096 ticks
};

/**
 * Drive a Reference and a SoaMasked rig, both built with @p tweak,
 * in lockstep over 3x as many synthetic warps as resident slots, so
 * retirement compaction and refill churn continuously. They must
 * agree on busy(), nextWakeTick() and the active-cycle count at every
 * serviced tick, and on the kernel stats and full stats dump at the
 * end. @p fault, if armed, is installed in both rigs. Returns at the
 * first disagreement.
 */
LockstepCoverage
expectLockstep(const ParamTweak &tweak = {},
               const sim::FaultPlan &fault = {})
{
    SmRig ref(SmIssuePath::Reference, tweak);
    SmRig soa(SmIssuePath::SoaMasked, tweak);
    EXPECT_EQ(ref.sm.issuePath(), SmIssuePath::Reference);
    EXPECT_EQ(soa.sm.issuePath(), SmIssuePath::SoaMasked);
    if (!fault.empty()) {
        ref.sim.installFaultInjector(
            std::make_unique<sim::FaultInjector>(fault, 1));
        soa.sim.installFaultInjector(
            std::make_unique<sim::FaultInjector>(fault, 1));
    }

    const std::uint64_t warps = 3 * ref.params.maxResidentWarps();
    gpu::KernelStats ksRef, ksSoa;
    ref.sm.beginKernel(makeSource(warps), &ksRef);
    soa.sm.beginKernel(makeSource(warps), &ksSoa);

    LockstepCoverage cov;
    Tick now = 0;
    for (std::uint64_t iter = 0; iter < 50'000'000; ++iter) {
        const Tick wr = ref.sm.nextWakeTick();
        EXPECT_EQ(wr, soa.sm.nextWakeTick()) << "tick " << now;
        const bool br = ref.sm.busy(now);
        EXPECT_EQ(br, soa.sm.busy(now)) << "tick " << now;
        if (::testing::Test::HasFailure())
            return cov;
        if (br) {
            const double active = ref.sm.activeCycles();
            ref.sm.tick(now);
            soa.sm.tick(now);
            EXPECT_EQ(ref.sm.activeCycles(), soa.sm.activeCycles())
                << "tick " << now;
            cov.stalled += ref.sm.activeCycles() == active;
            ++cov.serviced;
            ++now;
            continue;
        }
        if (wr == tickNever)
            break;
        cov.longWaits += wr > now + 4096;
        now = std::max(now + 1, wr); // fast-forward a pure stall
    }
    EXPECT_GT(cov.serviced, warps); // the drive actually ran work

    ref.sm.endKernel(now);
    soa.sm.endKernel(now);

    EXPECT_EQ(ksRef.warps, ksSoa.warps);
    EXPECT_EQ(ksRef.warps, warps);
    EXPECT_EQ(ksRef.threads, ksSoa.threads);
    EXPECT_EQ(ksRef.warpInstrs, ksSoa.warpInstrs);
    EXPECT_EQ(ksRef.threadInstrs, ksSoa.threadInstrs);
    EXPECT_EQ(ksRef.warpMemInstrs, ksSoa.warpMemInstrs);
    EXPECT_EQ(ksRef.memTransactions, ksSoa.memTransactions);
    EXPECT_EQ(ksRef.memLanes, ksSoa.memLanes);

    const std::string dr = ref.dump();
    const std::string ds = soa.dump();
    EXPECT_FALSE(dr.empty());
    EXPECT_EQ(dr, ds)
        << "issue paths diverged somewhere the per-tick probes "
           "don't reach";
    return cov;
}

TEST(SmTickEquivalence, LockstepTrajectoryAndFinalStatsMatch)
{
    expectLockstep();
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
    const LockstepCoverage cov =
        expectLockstep([](gpu::GpuParams &p) {
            allSlots(p);
            p.memsys.icnLatency = 2100;
        });
    EXPECT_GE(cov.longWaits, 40u); // 48 when written
}

TEST(SmTickEquivalence, FifoStallLongerThanTheNearHorizonResumes)
{
    // Twice mid-kernel the SM's issue FIFO freezes for 300 ticks:
    // the wheel is not walked meanwhile, and on resumption every ALU
    // wait it holds has long come due. The second drive's ALU waits
    // last exactly the near horizon, so they sit in the last bucket
    // a resumed walk may visit.
    sim::FaultPlan stall;
    for (const Tick at : {Tick{100}, Tick{1500}})
        stall.add({.kind = sim::FaultKind::FifoStall,
                   .at = at,
                   .magnitude = 300,
                   .target = 0});
    const LockstepCoverage cov = expectLockstep(allSlots, stall);
    EXPECT_GE(cov.stalled, 250u); // 313 when written
    const LockstepCoverage edge = expectLockstep(
        [](gpu::GpuParams &p) {
            allSlots(p);
            p.depIssueLatency = StreamingMultiprocessor::kNearHorizon;
        },
        stall);
    EXPECT_GE(edge.stalled, 500u); // 595 when written
}

TEST(SmTickEquivalence, DependentLatencyPastTheNearHorizon)
{
    // Every ALU wait outlasts the near horizon, so all blocked warps
    // go through the far heap.
    const LockstepCoverage cov =
        expectLockstep([](gpu::GpuParams &p) {
            allSlots(p);
            p.depIssueLatency = StreamingMultiprocessor::kNearHorizon + 13;
        });
    EXPECT_GE(cov.serviced, 900u); // 975 when written
}

TEST(SmTickEquivalence, WarpArrivingBlockedIsPromotedIdentically)
{
    // A warp whose handoff state starts blocked in the future
    // exercises the blocked-at-refill branch of the mask
    // bookkeeping.
    for (SmIssuePath path :
         {SmIssuePath::Reference, SmIssuePath::SoaMasked}) {
        SmRig rig(path);
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
}

} // namespace
