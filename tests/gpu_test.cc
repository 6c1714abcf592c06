/**
 * @file
 * Unit tests for the GPU timing model: SIMT warp merging, warp-wide
 * kernel bodies against their per-lane equivalents, coalescing
 * accounting, phase attribution, launch mechanics and the effect of
 * divergence on execution time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "alg/gpu_primitives.hh"
#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "mem/address_space.hh"
#include "mem/mem_system.hh"
#include "sim/check.hh"
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

TEST(WarpMerge, MidBodyDivergenceFollowsLeaderLane)
{
    // SSSP's contraction shape: every lane loads, computes, then only
    // improving lanes take an atomic before two stores every lane
    // takes. Which path lane 0 (the leader) takes decides the merged
    // order, so this body has no warp-wide form.
    const auto contract = [](std::uint64_t atomic_lanes) {
        LanePrograms lanes(4);
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            auto &l = lanes[i];
            l.push_back(memOp(Kind::Load, 0x100 + i * 4));
            l.push_back(compute(2));
            if (atomic_lanes >> i & 1)
                l.push_back(memOp(Kind::Atomic, 0x200 + i * 4));
            l.push_back(memOp(Kind::Store, 0x300 + i, 1));
            l.push_back(memOp(Kind::Store, 0x400 + i, 1));
        }
        return lanes;
    };
    const auto kindsAndMasks = [](const Warp &w) {
        std::vector<std::pair<Kind, std::uint64_t>> out;
        for (const WarpInstr &wi : w.instrs)
            out.emplace_back(wi.kind, wi.laneMask);
        return out;
    };

    // Lane 0 takes the atomic: it runs first, then both stores
    // reconverge over all lanes.
    const LanePrograms leader_atomic = contract(0b0101);
    const Warp a = flatMerge(leader_atomic);
    expectSameStream(leader_atomic, a);
    const std::vector<std::pair<Kind, std::uint64_t>> want_a = {
        {Kind::Load, 0b1111},  {Kind::Compute, 0},
        {Kind::Atomic, 0b0101}, {Kind::Store, 0b1111},
        {Kind::Store, 0b1111}};
    EXPECT_EQ(kindsAndMasks(a), want_a);

    // Lane 0 skips it: the skipping lanes run both stores first, and
    // the atomic lanes follow with the atomic and their own stores.
    const LanePrograms leader_skips = contract(0b0110);
    const Warp b = flatMerge(leader_skips);
    expectSameStream(leader_skips, b);
    const std::vector<std::pair<Kind, std::uint64_t>> want_b = {
        {Kind::Load, 0b1111},   {Kind::Compute, 0},
        {Kind::Store, 0b1001},  {Kind::Store, 0b1001},
        {Kind::Atomic, 0b0110}, {Kind::Store, 0b0110},
        {Kind::Store, 0b0110}};
    EXPECT_EQ(kindsAndMasks(b), want_b);
}

namespace
{

using WarpBodyFn = std::function<void(WarpBuilder &)>;
using LaneBodyFn = std::function<void(std::uint64_t, ThreadRecorder &)>;

/**
 * Build every warp of a @p threads-thread launch both ways — through
 * @p warp_body, and through @p lane_body plus mergeLanes — and
 * compare them field for field and address slot for address slot.
 * Returns how many warps ended with every lane retired.
 */
unsigned
expectSameWarps(std::uint64_t threads, const WarpBodyFn &warp_body,
                const LaneBodyFn &lane_body, unsigned warp_size = 32)
{
    unsigned all_retired = 0;
    for (std::uint64_t first = 0; first < threads; first += warp_size) {
        SCOPED_TRACE("warp at thread " + std::to_string(first));
        const auto lanes = static_cast<unsigned>(
            std::min<std::uint64_t>(warp_size, threads - first));
        Warp direct;
        WarpBuilder b(direct, first, lanes);
        warp_body(b);
        all_retired += b.live() == 0;

        ThreadRecorder rec;
        std::vector<std::uint32_t> lane_end;
        for (std::uint64_t t = first; t < first + lanes; ++t) {
            lane_body(t, rec);
            lane_end.push_back(
                static_cast<std::uint32_t>(rec.recorded().size()));
        }
        Warp merged;
        mergeLanes(rec.recorded(), lane_end, merged);

        EXPECT_EQ(direct.threads, merged.threads);
        EXPECT_EQ(direct.addrs.size(), merged.addrs.size());
        EXPECT_TRUE(std::equal(direct.addrs.begin(), direct.addrs.end(),
                               merged.addrs.begin(),
                               merged.addrs.end()));
        EXPECT_EQ(direct.instrs.size(), merged.instrs.size());
        const std::size_t k_end =
            std::min(direct.instrs.size(), merged.instrs.size());
        for (std::size_t k = 0; k < k_end; ++k) {
            const WarpInstr &x = direct.instrs[k];
            const WarpInstr &y = merged.instrs[k];
            SCOPED_TRACE("instr " + std::to_string(k));
            EXPECT_EQ(x.kind, y.kind);
            EXPECT_EQ(x.computeCount, y.computeCount);
            EXPECT_EQ(x.bytesPerLane, y.bytesPerLane);
            EXPECT_EQ(x.addrBase, y.addrBase);
            EXPECT_EQ(x.laneMask, y.laneMask);
        }
    }
    return all_retired;
}

/** Thread counts off every multiple of 32 and 256, plus exact ones. */
const std::uint64_t kThreadCounts[] = {1, 31, 32, 33, 255, 256, 257,
                                       1000, 4099};

} // namespace

TEST(WarpBody, UniformStreamingKernelMatchesMerge)
{
    // The prepare/dampen/rank-update shape: streaming loads, one
    // data-dependent gather load, compute, stores and an atomic.
    Rng rng(0x57ea);
    std::vector<std::uint32_t> idx(4099);
    for (auto &v : idx)
        v = static_cast<std::uint32_t>(rng.below(1 << 16));
    for (std::uint64_t n : kThreadCounts) {
        SCOPED_TRACE("n=" + std::to_string(n));
        expectSameWarps(
            n,
            [&](WarpBuilder &w) {
                w.load(4, [](std::uint64_t t) { return 0x1000 + t * 4; });
                w.load(8, [&](std::uint64_t t) {
                    return 0x90000 + Addr{idx[t]} * 8;
                });
                w.compute(16);
                w.compute(0);
                w.store(2, [](std::uint64_t t) { return 0x5000 + t * 2; });
                w.atomic(4, [&](std::uint64_t t) {
                    return 0x200000 + Addr{idx[t]} * 4;
                });
            },
            [&](std::uint64_t t, ThreadRecorder &rec) {
                rec.load(0x1000 + t * 4, 4);
                rec.load(0x90000 + Addr{idx[t]} * 8, 8);
                rec.compute(16);
                rec.compute(0);
                rec.store(0x5000 + t * 2, 2);
                rec.atomic(0x200000 + Addr{idx[t]} * 4, 4);
            });
    }
}

TEST(WarpBody, TailPredicatedKernelsMatchMerge)
{
    for (std::uint64_t n : kThreadCounts) {
        SCOPED_TRACE("n=" + std::to_string(n));
        // The scan-local shape: a block's last thread (and the
        // launch's last) also stores the block sum.
        const auto last_of_block = [n](std::uint64_t t) {
            return t % 256 == 255 || t == n - 1;
        };
        expectSameWarps(
            n,
            [&](WarpBuilder &w) {
                w.load(1, [](std::uint64_t t) { return 0x1000 + t; });
                w.compute(18);
                w.store(4, [](std::uint64_t t) { return 0x8000 + t * 4; });
                w.keepIf(last_of_block);
                w.store(4, [](std::uint64_t t) {
                    return 0x40000 + t / 256 * 4;
                });
            },
            [&](std::uint64_t t, ThreadRecorder &rec) {
                rec.load(0x1000 + t, 1);
                rec.compute(18);
                rec.store(0x8000 + t * 4, 4);
                if (last_of_block(t))
                    rec.store(0x40000 + t / 256 * 4, 4);
            });
        // The init shape: one lane in 32 also clears a bitmask word.
        expectSameWarps(
            n,
            [&](WarpBuilder &w) {
                w.compute(2);
                w.store(4, [](std::uint64_t t) { return 0x1000 + t * 4; });
                w.keepIf([](std::uint64_t t) { return t % 32 == 0; });
                w.store(4, [](std::uint64_t t) {
                    return 0x70000 + t / 32 * 4;
                });
            },
            [&](std::uint64_t t, ThreadRecorder &rec) {
                rec.compute(2);
                rec.store(0x1000 + t * 4, 4);
                if (t % 32 == 0)
                    rec.store(0x70000 + t / 32 * 4, 4);
            });
    }
}

TEST(WarpBody, RandomFlagKernelsMatchMerge)
{
    // The scatter and status-lookup shapes on random flags: the
    // unflagged lanes retire after the flag test. Flag density varies
    // per warp, so some warps keep every lane and some retire all.
    Rng rng(0xf1a95);
    std::vector<std::uint8_t> flags(4099);
    std::vector<std::uint32_t> pos(4099), node(4099);
    for (std::size_t w = 0; w * 32 < flags.size(); ++w) {
        const double p = (w % 4) / 3.0; // 0, 1/3, 2/3, 1
        for (std::size_t t = w * 32; t < std::min(flags.size(),
                                                  (w + 1) * 32);
             ++t)
            flags[t] = rng.chance(p) ? 1 : 0;
    }
    std::uint32_t running = 0;
    for (std::size_t t = 0; t < flags.size(); ++t) {
        pos[t] = running;
        running += flags[t];
        node[t] = static_cast<std::uint32_t>(rng.below(1 << 20));
    }

    unsigned all_retired = 0;
    for (std::uint64_t n : kThreadCounts) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto flagged = [&](std::uint64_t t) { return flags[t] != 0; };
        all_retired += expectSameWarps(
            n,
            [&](WarpBuilder &w) {
                w.load(1, [](std::uint64_t t) { return 0x1000 + t; });
                w.load(4, [](std::uint64_t t) { return 0x8000 + t * 4; });
                w.compute(12);
                w.keepIf(flagged);
                for (Addr s : {Addr{0x100000}, Addr{0x300000}}) {
                    w.load(4, [s](std::uint64_t t) { return s + t * 4; });
                    w.store(4, [&, s](std::uint64_t t) {
                        return s + 0x100000 + Addr{pos[t]} * 4;
                    });
                }
            },
            [&](std::uint64_t t, ThreadRecorder &rec) {
                rec.load(0x1000 + t, 1);
                rec.load(0x8000 + t * 4, 4);
                rec.compute(12);
                if (!flags[t])
                    return;
                for (Addr s : {Addr{0x100000}, Addr{0x300000}}) {
                    rec.load(s + t * 4, 4);
                    rec.store(s + 0x100000 + Addr{pos[t]} * 4, 4);
                }
            });
        const auto bits = [&](std::uint64_t t) {
            return 0x600000 + Addr{node[t] / 32} * 4;
        };
        expectSameWarps(
            n,
            [&](WarpBuilder &w) {
                w.load(4, [](std::uint64_t t) { return 0x1000 + t * 4; });
                w.load(4, bits);
                w.compute(24);
                w.store(1, [](std::uint64_t t) { return 0x9000 + t; });
                w.keepIf(flagged);
                w.store(4, [&](std::uint64_t t) {
                    return 0x800000 + Addr{node[t]} * 4;
                });
                w.store(4, bits);
            },
            [&](std::uint64_t t, ThreadRecorder &rec) {
                rec.load(0x1000 + t * 4, 4);
                rec.load(bits(t), 4);
                rec.compute(24);
                rec.store(0x9000 + t, 1);
                if (flags[t]) {
                    rec.store(0x800000 + Addr{node[t]} * 4, 4);
                    rec.store(bits(t), 4);
                }
            });
    }
    EXPECT_GT(all_retired, 0u);
}

TEST(WarpBody, AllLanesRetiredEmitsNothingMore)
{
    Warp w;
    WarpBuilder b(w, 64, 20);
    EXPECT_EQ(w.threads, 20u);
    b.compute(3);
    b.keepIf([](std::uint64_t) { return false; });
    EXPECT_EQ(b.live(), 0u);
    b.compute(5);
    b.load(4, [](std::uint64_t t) { return t * 4; });
    b.store(4, [](std::uint64_t t) { return t * 4; });
    b.atomic(4, [](std::uint64_t t) { return t * 4; });
    ASSERT_EQ(w.instrs.size(), 1u);
    EXPECT_EQ(w.instrs[0].computeCount, 3u);
    EXPECT_TRUE(w.addrs.empty());
}

TEST(WarpBody, ExpandGatherMatchesPerThreadBinarySearch)
{
    // gpuExpand's gather: one binary search per warp plus a forward
    // owner walk, against the per-thread upper_bound it replaced.
    // Runs of length 0 (so the walk skips empty runs, also at a
    // warp's first lane) and runs longer than a warp.
    Rng rng(0x9a7e);
    mem::AddressSpace as(1ULL << 28);
    unsigned empty_runs = 0, long_runs = 0;
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const std::size_t n = rng.range(1, 300);
        alg::Elems scanned, dist;
        scanned.allocate(as, "scanned", n + 1);
        dist.allocate(as, "dist", n);
        std::uint32_t total = 0;
        for (std::size_t i = 0; i < n; ++i) {
            scanned[i] = total;
            dist[i] = static_cast<std::uint32_t>(rng.below(1000));
            const auto len = static_cast<std::uint32_t>(
                rng.chance(0.4)   ? 0
                : rng.chance(0.1) ? rng.range(33, 200)
                                  : rng.range(1, 5));
            empty_runs += len == 0;
            long_runs += len > 32;
            total += len;
        }
        scanned[n] = total;
        alg::Elems edges, out_a, out_b;
        edges.allocate(as, "edges", total + 1);
        out_a.allocate(as, "out_a", total + 1);
        out_b.allocate(as, "out_b", total + 1);
        for (std::uint32_t e = 0; e < total; ++e)
            edges[e] = static_cast<std::uint32_t>(rng.below(1 << 20));

        const alg::ExpandOutput outs[] = {
            {&out_a, 1,
             [&](std::size_t i, std::uint32_t j,
                 Addr *addrs) -> std::uint32_t {
                 addrs[0] = edges.addrOf(scanned[i] + j);
                 return edges[scanned[i] + j];
             }},
            {&out_b, 2,
             [&](std::size_t i, std::uint32_t j,
                 Addr *addrs) -> std::uint32_t {
                 addrs[0] = edges.addrOf(scanned[i] + j);
                 addrs[1] = dist.addrOf(i);
                 return edges[scanned[i] + j] + dist[i];
             }}};
        const KernelLaunch k =
            alg::expandGather(scanned, n, outs, "gather");
        ASSERT_EQ(k.numThreads, total);

        // The gather body before the owner walk, per thread.
        const auto per_thread = [&](std::uint64_t t,
                                    ThreadRecorder &rec) {
            const auto it = std::upper_bound(
                scanned.host().begin(),
                scanned.host().begin() +
                    static_cast<std::ptrdiff_t>(n) + 1,
                static_cast<std::uint32_t>(t));
            const auto i = static_cast<std::size_t>(
                               it - scanned.host().begin()) - 1;
            const auto j = static_cast<std::uint32_t>(t - scanned[i]);
            rec.load(scanned.addrOf(i), 4);
            rec.load(scanned.addrOf(i + 1), 4);
            rec.compute(24);
            for (const auto &o : outs) {
                Addr addrs[alg::ExpandOutput::maxLoads];
                o.value(i, j, addrs);
                for (unsigned l = 0; l < o.loads; ++l)
                    rec.load(addrs[l], 4);
                rec.store(o.out->addrOf(t), 4);
            }
        };
        expectSameWarps(total, k.warpBody, per_thread);

        // Functional result: run i's elements, in order.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::uint32_t t = scanned[i]; t < scanned[i + 1]; ++t) {
                ASSERT_EQ(out_a[t], edges[t]);
                ASSERT_EQ(out_b[t], edges[t] + dist[i]);
            }
        }
    }
    EXPECT_GT(empty_runs, 0u);
    EXPECT_GT(long_runs, 0u);
}

TEST(WarpBody, KeepingARetiredLaneDiesInCheckedBuilds)
{
    if (!sim::checksEnabled)
        GTEST_SKIP() << "SCUSIM_CHECK not compiled in";
    Warp w;
    WarpBuilder b(w, 0, 32);
    b.keepIf([](std::uint64_t t) { return t != 3; });
    EXPECT_DEATH(b.keepLanes(maskLow(32)), "lane 3, which is not live");
}
