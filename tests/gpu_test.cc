/**
 * @file
 * Unit tests for the GPU timing model: SIMT warp merging, coalescing
 * accounting, phase attribution, launch mechanics and the effect of
 * divergence on execution time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "mem/mem_system.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::gpu;

namespace
{

struct Rig
{
    Rig()
        : params(GpuParams::tx1()), clk(params.freqHz),
          root("t"),
          mem(params.memsys, clk, &root),
          gpu(params, mem, sim, &root)
    {
    }

    GpuParams params;
    sim::ClockDomain clk;
    stats::StatGroup root;
    sim::Simulation sim;
    mem::MemSystem mem;
    Gpu gpu;
};

KernelLaunch
makeKernel(const char *name, std::uint64_t threads,
           std::function<void(std::uint64_t, ThreadRecorder &)> body,
           Phase phase = Phase::Processing)
{
    KernelLaunch k;
    k.name = name;
    k.phase = phase;
    k.numThreads = threads;
    k.body = std::move(body);
    return k;
}

} // namespace

TEST(GpuModel, EmptyLaunchOnlyCostsOverhead)
{
    Rig r;
    auto ks = r.gpu.launch(makeKernel(
        "empty", 0, [](std::uint64_t, ThreadRecorder &) {}));
    EXPECT_EQ(ks.cycles(), 0u);
    EXPECT_EQ(r.sim.now(), r.gpu.launchOverhead());
}

TEST(GpuModel, ThreadAndWarpCounts)
{
    Rig r;
    auto ks = r.gpu.launch(makeKernel(
        "count", 100, [](std::uint64_t, ThreadRecorder &rec) {
            rec.compute(1);
        }));
    EXPECT_EQ(ks.threads, 100u);
    EXPECT_EQ(ks.warps, 4u); // ceil(100/32)
    EXPECT_GE(ks.warpInstrs, 4u);
    EXPECT_EQ(ks.threadInstrs, 100u);
}

TEST(GpuModel, CoalescedVsDivergentLoads)
{
    Rig r;
    constexpr std::uint64_t n = 32 * 64;

    auto coalesced = r.gpu.launch(makeKernel(
        "coalesced", n, [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.load(0x100000 + tid * 4, 4);
        }));
    auto divergent = r.gpu.launch(makeKernel(
        "divergent", n, [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.load(0x100000 + tid * 4096, 4);
        }));

    // 1 transaction per warp vs 32.
    EXPECT_EQ(coalesced.memTransactions, n / 32);
    EXPECT_EQ(divergent.memTransactions, n);
    EXPECT_DOUBLE_EQ(coalesced.coalescingEfficiency(), 1.0);
    EXPECT_NEAR(divergent.coalescingEfficiency(), 1.0 / 32, 1e-9);
    EXPECT_GT(divergent.cycles(), coalesced.cycles());
}

TEST(GpuModel, PhaseAttribution)
{
    Rig r;
    r.gpu.launch(makeKernel(
        "proc", 64,
        [](std::uint64_t, ThreadRecorder &rec) { rec.compute(4); },
        Phase::Processing));
    r.gpu.launch(makeKernel(
        "comp", 64,
        [](std::uint64_t, ThreadRecorder &rec) { rec.compute(4); },
        Phase::Compaction));
    const auto &t = r.gpu.totals();
    EXPECT_EQ(t.processing.threads, 64u);
    EXPECT_EQ(t.compaction.threads, 64u);
    EXPECT_GT(t.processingCycles, 0u);
    EXPECT_GT(t.compactionCycles, 0u);
    EXPECT_EQ(t.launches, 2u);
}

TEST(GpuModel, DivergentOpKindsSerialize)
{
    Rig r;
    // Half the lanes load, half store at their first op: the merge
    // must produce two warp instructions per warp.
    auto ks = r.gpu.launch(makeKernel(
        "mixed", 32, [](std::uint64_t tid, ThreadRecorder &rec) {
            if (tid % 2 == 0)
                rec.load(0x1000 + tid * 4, 4);
            else
                rec.store(0x8000 + tid * 4, 4);
        }));
    EXPECT_EQ(ks.warpMemInstrs, 2u);
    EXPECT_EQ(ks.memLanes, 32u);
}

TEST(GpuModel, ImbalancedThreadsExtendWarp)
{
    Rig r;
    // One thread does 100 compute steps; a balanced kernel of the
    // same total work is faster because the long thread serializes
    // its whole warp.
    auto imbalanced = r.gpu.launch(makeKernel(
        "imbalanced", 32, [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.compute(tid == 0 ? 3200 : 1);
        }));
    auto balanced = r.gpu.launch(makeKernel(
        "balanced", 32, [](std::uint64_t, ThreadRecorder &rec) {
            rec.compute(100);
        }));
    EXPECT_GT(imbalanced.cycles(), 2 * balanced.cycles());
}

TEST(GpuModel, AtomicsSerializePerAddress)
{
    Rig r;
    // All lanes atomically update the same address vs distinct
    // addresses in one line: same-address traffic is one txn, but
    // distinct addresses cannot merge.
    auto same = r.gpu.launch(makeKernel(
        "atomic_same", 32, [](std::uint64_t, ThreadRecorder &rec) {
            rec.atomic(0x4000, 4);
        }));
    auto distinct = r.gpu.launch(makeKernel(
        "atomic_distinct", 32,
        [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.atomic(0x4000 + tid * 4, 4);
        }));
    EXPECT_EQ(same.memTransactions, 1u);
    EXPECT_EQ(distinct.memTransactions, 32u);
}

TEST(GpuModel, MoreParallelismMoreThroughput)
{
    // The same memory-bound kernel on GTX980 (16 SMs) must be much
    // faster than on TX1 (2 SMs).
    auto run = [](const GpuParams &p) {
        sim::ClockDomain clk(p.freqHz);
        stats::StatGroup root("t");
        sim::Simulation sim;
        mem::MemSystem mem(p.memsys, clk, &root);
        Gpu gpu(p, mem, sim, &root);
        KernelLaunch k;
        k.name = "stream";
        k.numThreads = 32 * 2048;
        k.body = [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.load(0x1000000 + tid * 4, 4);
            rec.compute(8);
            rec.store(0x4000000 + tid * 4, 4);
        };
        auto ks = gpu.launch(k);
        return ks.cycles();
    };
    Tick big = run(GpuParams::gtx980());
    Tick small = run(GpuParams::tx1());
    EXPECT_GT(small, 3 * big);
}

TEST(GpuModel, LaunchOverheadMatchesConfig)
{
    Rig r;
    Tick before = r.sim.now();
    r.gpu.launch(makeKernel("tiny", 1,
                            [](std::uint64_t, ThreadRecorder &rec) {
                                rec.compute(1);
                            }));
    EXPECT_GE(r.sim.now() - before, r.params.launchLatency);
}

namespace
{

using Kind = ThreadOp::Kind;
using LanePrograms = std::vector<std::vector<ThreadOp>>;

/** One merged instruction as the reference merge produces it. */
struct RefInstr
{
    Kind kind = Kind::Compute;
    std::uint32_t computeCount = 0;
    std::uint32_t bytesPerLane = 4;
    std::uint64_t laneMask = 0;
    std::vector<Addr> laneAddrs; ///< one slot per lane, mem ops only
};

/**
 * The positional SIMT merge written the plain way, over one vector
 * per lane: at each step the first unfinished lane's op kind runs,
 * every lane whose current op has that kind takes part.
 */
std::vector<RefInstr>
referenceMerge(const LanePrograms &lanes)
{
    std::vector<RefInstr> out;
    std::vector<std::size_t> pos(lanes.size(), 0);
    while (true) {
        std::size_t leader = lanes.size();
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            if (pos[i] < lanes[i].size()) {
                leader = i;
                break;
            }
        }
        if (leader == lanes.size())
            return out;
        RefInstr ri;
        ri.kind = lanes[leader][pos[leader]].kind;
        if (ri.kind != Kind::Compute)
            ri.laneAddrs.assign(lanes.size(), 0);
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            if (pos[i] >= lanes[i].size() ||
                lanes[i][pos[i]].kind != ri.kind)
                continue;
            const ThreadOp &op = lanes[i][pos[i]++];
            if (ri.kind == Kind::Compute) {
                ri.computeCount = std::max(ri.computeCount, op.count);
            } else {
                ri.laneAddrs[i] = op.addr;
                ri.laneMask |= std::uint64_t{1} << i;
                ri.bytesPerLane = std::max(ri.bytesPerLane, op.count);
            }
        }
        if (ri.kind == Kind::Compute && ri.computeCount == 0)
            ri.computeCount = 1;
        out.push_back(std::move(ri));
    }
}

/** Flatten @p lanes and run the simulator's merge on them. */
Warp
flatMerge(const LanePrograms &lanes)
{
    std::vector<ThreadOp> ops;
    std::vector<std::uint32_t> laneEnd;
    for (const auto &lane : lanes) {
        ops.insert(ops.end(), lane.begin(), lane.end());
        laneEnd.push_back(static_cast<std::uint32_t>(ops.size()));
    }
    Warp w;
    mergeLanes(ops, laneEnd, w);
    return w;
}

/** Compare the merged warp against the reference, instr by instr. */
void
expectSameStream(const LanePrograms &lanes, const Warp &w)
{
    const std::vector<RefInstr> ref = referenceMerge(lanes);
    ASSERT_EQ(w.threads, lanes.size());
    ASSERT_EQ(w.instrs.size(), ref.size());
    std::size_t mem_ops = 0;
    for (std::size_t k = 0; k < ref.size(); ++k) {
        const WarpInstr &wi = w.instrs[k];
        SCOPED_TRACE("instr " + std::to_string(k));
        ASSERT_EQ(wi.kind, ref[k].kind);
        if (wi.kind == Kind::Compute) {
            EXPECT_EQ(wi.computeCount, ref[k].computeCount);
            continue;
        }
        ++mem_ops;
        EXPECT_EQ(wi.laneMask, ref[k].laneMask);
        EXPECT_EQ(wi.bytesPerLane, ref[k].bytesPerLane);
        const auto slots = w.laneAddrs(wi);
        EXPECT_TRUE(std::equal(slots.begin(), slots.end(),
                               ref[k].laneAddrs.begin(),
                               ref[k].laneAddrs.end()));
    }
    // Each mem op owns exactly one slot per lane of the pool.
    EXPECT_EQ(w.addrs.size(), mem_ops * lanes.size());
}

ThreadOp
compute(std::uint32_t n)
{
    return {Kind::Compute, n, 0};
}

ThreadOp
memOp(Kind k, Addr a, std::uint32_t bytes = 4)
{
    return {k, bytes, a};
}

} // namespace

TEST(WarpMerge, HandWorkedDivergentWarp)
{
    // Lane 0: C3, L@a. Lane 1: L@b (8 B). Lane 2: nothing.
    // Lane 3: C5, C1.
    const LanePrograms lanes = {
        {compute(3), memOp(Kind::Load, 0xa0)},
        {memOp(Kind::Load, 0xb0, 8)},
        {},
        {compute(5), compute(1)},
    };
    const Warp w = flatMerge(lanes);
    ASSERT_EQ(w.instrs.size(), 3u);
    // Lanes 0 and 3 compute together for the longer count.
    EXPECT_EQ(w.instrs[0].kind, Kind::Compute);
    EXPECT_EQ(w.instrs[0].computeCount, 5u);
    // Lanes 0 and 1 load together; lane 3 waits.
    EXPECT_EQ(w.instrs[1].kind, Kind::Load);
    EXPECT_EQ(w.instrs[1].laneMask, 0b11u);
    EXPECT_EQ(w.instrs[1].bytesPerLane, 8u);
    const auto slots = w.laneAddrs(w.instrs[1]);
    ASSERT_EQ(slots.size(), 4u);
    EXPECT_EQ(slots[0], 0xa0u);
    EXPECT_EQ(slots[1], 0xb0u);
    // Lane 3's second compute op runs alone.
    EXPECT_EQ(w.instrs[2].kind, Kind::Compute);
    EXPECT_EQ(w.instrs[2].computeCount, 1u);
    expectSameStream(lanes, w);
}

TEST(WarpMerge, EmptyLanesMergeToNothing)
{
    const LanePrograms lanes(32);
    const Warp w = flatMerge(lanes);
    EXPECT_EQ(w.threads, 32u);
    EXPECT_TRUE(w.instrs.empty());
    EXPECT_TRUE(w.addrs.empty());
}

TEST(WarpMerge, MatchesReferenceOnRandomLanePrograms)
{
    Rng rng(0x3e7c0de);
    const Kind kinds[] = {Kind::Compute, Kind::Load, Kind::Store,
                          Kind::Atomic};
    const std::uint32_t widths[] = {1, 2, 4, 8, 16};
    // What the random programs must have covered.
    unsigned partial = 0, empty_lane = 0, uneven = 0, masked = 0,
             compute_max = 0, bytes_max = 0, mixed = 0;

    for (int trial = 0; trial < 3000; ++trial) {
        // Mostly full warps, some partial last warps, a few 64-lane
        // warps (the widest a lane mask holds).
        const std::size_t n =
            trial % 5 == 0 ? rng.range(1, 31)
                           : (trial % 17 == 0 ? 64 : 32);
        partial += n < 32;
        // Lanes follow a shared kind template and stray from it at
        // random, so merges both converge and diverge.
        std::vector<Kind> tmpl(rng.range(0, 8));
        for (Kind &k : tmpl)
            k = kinds[rng.below(4)];
        LanePrograms lanes(n);
        for (auto &lane : lanes) {
            if (rng.chance(0.15)) {
                ++empty_lane;
                continue;
            }
            const std::size_t len =
                rng.chance(0.5) ? tmpl.size() : rng.range(0, 10);
            for (std::size_t j = 0; j < len; ++j) {
                const Kind k = j < tmpl.size() && rng.chance(0.8)
                                   ? tmpl[j]
                                   : kinds[rng.below(4)];
                if (k == Kind::Compute)
                    lane.push_back(compute(
                        static_cast<std::uint32_t>(rng.range(1, 6))));
                else
                    lane.push_back(memOp(
                        k, rng.below(1 << 20) * 4,
                        widths[rng.below(5)]));
            }
        }
        for (std::size_t i = 1; i < n; ++i)
            uneven += lanes[i].size() != lanes[0].size();

        const Warp w = flatMerge(lanes);
        ASSERT_NO_FATAL_FAILURE(expectSameStream(lanes, w))
            << "trial " << trial;

        for (const WarpInstr &wi : w.instrs) {
            if (wi.kind == Kind::Compute) {
                compute_max += wi.computeCount > 1;
                continue;
            }
            masked += wi.laneMask != maskLow(static_cast<unsigned>(n));
            bytes_max += wi.bytesPerLane > 4;
        }
        for (std::size_t k = 1; k < w.instrs.size(); ++k)
            mixed += w.instrs[k].kind != w.instrs[k - 1].kind;
    }
    EXPECT_GT(partial, 0u);
    EXPECT_GT(empty_lane, 0u);
    EXPECT_GT(uneven, 0u);
    EXPECT_GT(masked, 0u);
    EXPECT_GT(compute_max, 0u);
    EXPECT_GT(bytes_max, 0u);
    EXPECT_GT(mixed, 0u);
}

TEST(WarpMerge, AppendsAfterExistingContents)
{
    // A recycled warp arrives cleared, but the merge only appends:
    // addrBase must index past whatever the pool already holds.
    const std::vector<ThreadOp> ops = {memOp(Kind::Store, 0x40),
                                       memOp(Kind::Store, 0x80)};
    const std::vector<std::uint32_t> laneEnd = {1, 2};
    Warp w;
    w.addrs.assign(5, 7);
    mergeLanes(ops, laneEnd, w);
    ASSERT_EQ(w.instrs.size(), 1u);
    EXPECT_EQ(w.instrs[0].addrBase, 5u);
    const auto slots = w.laneAddrs(w.instrs[0]);
    EXPECT_EQ(slots[0], 0x40u);
    EXPECT_EQ(slots[1], 0x80u);
}
