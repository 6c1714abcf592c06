/**
 * @file
 * Unit tests for the Stream Compaction Unit: the golden semantics of
 * the five operations of Figure 6, the filtering and grouping hash
 * tables of Section 4, the two-step enhanced flow and the timing
 * model's throughput behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <set>

#include "common/rng.hh"

#include "mem/address_space.hh"
#include "mem/mem_system.hh"
#include "scu/hash_table.hh"
#include "scu/scu.hh"
#include "sim/clock.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::scu;

namespace
{

struct Rig
{
    Rig()
        : clk(1e9), root("t"), as(1ULL << 32)
    {
        mem::MemSystemParams mp;
        mp.dram = mem::DramParams::lpddr4();
        mp.l2.sizeBytes = 256 << 10;
        mem = std::make_unique<mem::MemSystem>(mp, clk, &root);
        ScuParams sp = ScuParams::forTx1();
        scu = std::make_unique<Scu>(sp, *mem, sim, as, &root);
    }

    Scu::Elems
    elems(const std::string &name,
          const std::vector<std::uint32_t> &vals,
          std::size_t extra = 0)
    {
        Scu::Elems e(as, name, vals.size() + extra);
        for (std::size_t i = 0; i < vals.size(); ++i)
            e[i] = vals[i];
        return e;
    }

    Scu::Flags
    flags(const std::string &name,
          const std::vector<std::uint8_t> &vals)
    {
        Scu::Flags f(as, name, vals.size());
        for (std::size_t i = 0; i < vals.size(); ++i)
            f[i] = vals[i];
        return f;
    }

    sim::ClockDomain clk;
    stats::StatGroup root;
    sim::Simulation sim;
    mem::AddressSpace as;
    std::unique_ptr<mem::MemSystem> mem;
    std::unique_ptr<Scu> scu;
};

std::vector<std::uint32_t>
collect(const Scu::Elems &out, std::size_t n)
{
    std::vector<std::uint32_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = out[i];
    return v;
}

} // namespace

// ----------------------------------------------------------------
// Figure 6 golden semantics.
// ----------------------------------------------------------------

TEST(ScuOps, BitmaskConstructor)
{
    Rig r;
    auto in = r.elems("in", {5, 2, 9, 7, 2});
    Scu::Flags out(r.as, "mask", 5);
    auto st = r.scu->bitmaskConstructor(in, 5, CompareOp::Gt, 4, out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 0);
    EXPECT_EQ(out[2], 1);
    EXPECT_EQ(out[3], 1);
    EXPECT_EQ(out[4], 0);
    EXPECT_EQ(st.elemsIn, 5u);
    EXPECT_EQ(st.elemsOut, 5u);
    EXPECT_GT(st.cycles(), 0u);
}

TEST(ScuOps, BitmaskComparators)
{
    Rig r;
    auto in = r.elems("in", {3});
    Scu::Flags out(r.as, "mask", 1);
    auto check = [&](CompareOp op, std::uint32_t ref, bool want) {
        r.scu->bitmaskConstructor(in, 1, op, ref, out);
        EXPECT_EQ(out[0] != 0, want);
    };
    check(CompareOp::Eq, 3, true);
    check(CompareOp::Ne, 3, false);
    check(CompareOp::Lt, 4, true);
    check(CompareOp::Le, 3, true);
    check(CompareOp::Gt, 3, false);
    check(CompareOp::Ge, 3, true);
}

TEST(ScuOps, DataCompactionFigure6)
{
    // Figure 6: source A B C with bitmask 1 0 1 -> A C.
    Rig r;
    auto in = r.elems("in", {'A', 'B', 'C'});
    auto mask = r.flags("mask", {1, 0, 1});
    Scu::Elems out(r.as, "out", 3);
    std::size_t n = 0;
    auto st = r.scu->dataCompaction(in, 3, &mask, out, n);
    ASSERT_EQ(n, 2u);
    EXPECT_EQ(out[0], static_cast<std::uint32_t>('A'));
    EXPECT_EQ(out[1], static_cast<std::uint32_t>('C'));
    EXPECT_EQ(st.elemsOut, 2u);
}

TEST(ScuOps, DataCompactionNullMaskKeepsAll)
{
    Rig r;
    auto in = r.elems("in", {1, 2, 3, 4});
    Scu::Elems out(r.as, "out", 4);
    std::size_t n = 0;
    r.scu->dataCompaction(in, 4, nullptr, out, n);
    EXPECT_EQ(collect(out, n), (std::vector<std::uint32_t>{1, 2, 3,
                                                           4}));
}

TEST(ScuOps, AccessCompactionFigure6)
{
    // Figure 6: indexes 1 7 2 with bitmask 0 1 1 gathers
    // data[7], data[2].
    Rig r;
    std::vector<std::uint32_t> data(10);
    std::iota(data.begin(), data.end(), 100);
    auto d = r.elems("data", data);
    auto idx = r.elems("idx", {1, 7, 2});
    auto mask = r.flags("mask", {0, 1, 1});
    Scu::Elems out(r.as, "out", 3);
    std::size_t n = 0;
    r.scu->accessCompaction(d, idx, 3, &mask, out, n);
    ASSERT_EQ(n, 2u);
    EXPECT_EQ(out[0], 107u);
    EXPECT_EQ(out[1], 102u);
}

TEST(ScuOps, ReplicationCompactionFigure6)
{
    // Figure 6: A B C with counts 4 2 1 and bitmask 1 1 0
    // -> A A A A B B.
    Rig r;
    auto in = r.elems("in", {'A', 'B', 'C'});
    auto cnt = r.elems("cnt", {4, 2, 1});
    auto mask = r.flags("mask", {1, 1, 0});
    Scu::Elems out(r.as, "out", 8);
    std::size_t n = 0;
    r.scu->replicationCompaction(in, cnt, 3, &mask, out, n);
    EXPECT_EQ(collect(out, n),
              (std::vector<std::uint32_t>{'A', 'A', 'A', 'A', 'B',
                                          'B'}));
}

TEST(ScuOps, AccessExpansionCompactionFigure6)
{
    // Gather runs data[idx[i] .. idx[i]+count[i]).
    Rig r;
    std::vector<std::uint32_t> data(16);
    std::iota(data.begin(), data.end(), 0);
    auto d = r.elems("data", data);
    auto idx = r.elems("idx", {3, 2, 10});
    auto cnt = r.elems("cnt", {3, 2, 1});
    Scu::Elems out(r.as, "out", 8);
    std::size_t n = 0;
    r.scu->accessExpansionCompaction(d, idx, cnt, 3, nullptr, out, n);
    EXPECT_EQ(collect(out, n),
              (std::vector<std::uint32_t>{3, 4, 5, 2, 3, 10}));
}

TEST(ScuOps, AccessExpansionWithMaskSkipsRuns)
{
    Rig r;
    std::vector<std::uint32_t> data{9, 8, 7, 6};
    auto d = r.elems("data", data);
    auto idx = r.elems("idx", {0, 2});
    auto cnt = r.elems("cnt", {2, 2});
    auto mask = r.flags("mask", {0, 1});
    Scu::Elems out(r.as, "out", 4);
    std::size_t n = 0;
    r.scu->accessExpansionCompaction(d, idx, cnt, 2, &mask, out, n);
    EXPECT_EQ(collect(out, n), (std::vector<std::uint32_t>{7, 6}));
}

TEST(ScuOps, AppendSemantics)
{
    Rig r;
    auto a = r.elems("a", {1, 2});
    auto b = r.elems("b", {3});
    Scu::Elems out(r.as, "out", 4);
    std::size_t n = 0;
    r.scu->dataCompaction(a, 2, nullptr, out, n);
    r.scu->dataCompaction(b, 1, nullptr, out, n);
    EXPECT_EQ(collect(out, n), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(ScuOps, OutputOverflowPanics)
{
    Rig r;
    auto in = r.elems("in", {1, 2, 3});
    Scu::Elems out(r.as, "out", 1);
    std::size_t n = 0;
    EXPECT_DEATH(r.scu->dataCompaction(in, 3, nullptr, out, n),
                 "overflow");
}

// ----------------------------------------------------------------
// Filtering (Section 4.2).
// ----------------------------------------------------------------

TEST(ScuFilter, UniqueRemovesDuplicates)
{
    Rig r;
    auto in = r.elems("in", {7, 3, 7, 7, 3, 9});
    Scu::Elems out(r.as, "out", 6);

    std::vector<std::uint8_t> keep;
    OpOptions o1;
    o1.writeOutput = false;
    o1.filterMode = FilterMode::Unique;
    o1.keepOut = &keep;
    std::size_t ignore = 0;
    auto st = r.scu->dataCompaction(in, 6, nullptr, out, ignore, o1);
    EXPECT_EQ(st.filtered, 3u);
    EXPECT_EQ(keep,
              (std::vector<std::uint8_t>{1, 1, 0, 0, 0, 1}));

    OpOptions o2;
    o2.keep = &keep;
    std::size_t n = 0;
    r.scu->dataCompaction(in, 6, nullptr, out, n, o2);
    EXPECT_EQ(collect(out, n), (std::vector<std::uint32_t>{7, 3, 9}));
}

TEST(ScuFilter, BestCostKeepsImprovements)
{
    Rig r;
    // Element 5 seen with costs 10, 8, 12, 8: keep the first and
    // the improvement; drop the worse and the tie.
    auto in = r.elems("in", {5, 5, 5, 5});
    Scu::Elems out(r.as, "out", 4);
    std::vector<std::uint32_t> costs{10, 8, 12, 8};
    std::vector<std::uint8_t> keep;
    OpOptions o1;
    o1.writeOutput = false;
    o1.filterMode = FilterMode::BestCost;
    o1.keepOut = &keep;
    o1.costs = costs;
    std::size_t ignore = 0;
    r.scu->dataCompaction(in, 4, nullptr, out, ignore, o1);
    EXPECT_EQ(keep, (std::vector<std::uint8_t>{1, 1, 0, 0}));
}

TEST(ScuFilter, ResetForgetsHistory)
{
    Rig r;
    auto in = r.elems("in", {4});
    Scu::Elems out(r.as, "out", 1);
    std::vector<std::uint8_t> keep;
    OpOptions o1;
    o1.writeOutput = false;
    o1.filterMode = FilterMode::Unique;
    o1.keepOut = &keep;
    std::size_t ig = 0;
    r.scu->dataCompaction(in, 1, nullptr, out, ig, o1);
    EXPECT_EQ(keep[0], 1);
    r.scu->dataCompaction(in, 1, nullptr, out, ig, o1);
    EXPECT_EQ(keep[0], 0); // duplicate across ops, table persists
    r.scu->uniqueFilter().reset();
    r.scu->dataCompaction(in, 1, nullptr, out, ig, o1);
    EXPECT_EQ(keep[0], 1);
}

TEST(ScuFilter, CollisionsGiveFalseNegativesOnly)
{
    // With a tiny hash, evictions may let duplicates through (false
    // negatives) but a first occurrence is never dropped before any
    // eviction of its entry can happen... verified statistically:
    // every value the filter keeps at first sight must be correct.
    Rig r;
    Rng rng(13);
    std::vector<std::uint32_t> vals;
    for (int i = 0; i < 5000; ++i)
        vals.push_back(static_cast<std::uint32_t>(rng.below(1000)));
    auto in = r.elems("in", vals);
    Scu::Elems out(r.as, "out", vals.size());
    std::vector<std::uint8_t> keep;
    OpOptions o1;
    o1.writeOutput = false;
    o1.filterMode = FilterMode::Unique;
    o1.keepOut = &keep;
    std::size_t ig = 0;
    r.scu->uniqueFilter().reset();
    auto st = r.scu->dataCompaction(in, vals.size(), nullptr, out,
                                    ig, o1);

    // All kept elements must include every distinct value at least
    // once (no false positives: a first sighting always passes).
    std::set<std::uint32_t> kept, all(vals.begin(), vals.end());
    for (std::size_t i = 0; i < vals.size(); ++i) {
        if (keep[i])
            kept.insert(vals[i]);
    }
    EXPECT_EQ(kept, all);
    // And the filter removed the bulk of the ~4000 duplicates.
    EXPECT_GT(st.filtered, 3000u);
}

// ----------------------------------------------------------------
// Grouping (Section 4.3).
// ----------------------------------------------------------------

TEST(ScuGroup, OrderIsAPermutation)
{
    Rig r;
    Rng rng(17);
    std::vector<std::uint32_t> vals;
    for (int i = 0; i < 3000; ++i)
        vals.push_back(static_cast<std::uint32_t>(rng.below(8000)));
    auto in = r.elems("in", vals);
    Scu::Elems out(r.as, "out", vals.size());
    std::vector<std::uint32_t> order;
    OpOptions g1;
    g1.writeOutput = false;
    g1.makeGroups = true;
    g1.orderOut = &order;
    std::size_t ig = 0;
    r.scu->groupingTable().reset();
    r.scu->dataCompaction(in, vals.size(), nullptr, out, ig, g1);

    ASSERT_EQ(order.size(), vals.size());
    std::vector<std::uint32_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(ScuGroup, ImprovesDestinationLineLocality)
{
    Rig r;
    Rng rng(23);
    std::vector<std::uint32_t> vals;
    for (int i = 0; i < 8000; ++i)
        vals.push_back(static_cast<std::uint32_t>(rng.below(4096)));
    auto in = r.elems("in", vals);
    Scu::Elems out(r.as, "out", vals.size());

    std::vector<std::uint32_t> order;
    OpOptions g1;
    g1.writeOutput = false;
    g1.makeGroups = true;
    g1.orderOut = &order;
    std::size_t ig = 0;
    r.scu->groupingTable().reset();
    r.scu->dataCompaction(in, vals.size(), nullptr, out, ig, g1);

    OpOptions s2;
    s2.order = &order;
    std::size_t n = 0;
    r.scu->dataCompaction(in, vals.size(), nullptr, out, n, s2);
    ASSERT_EQ(n, vals.size());

    auto same_line_pairs = [&](auto get) {
        std::size_t same = 0;
        for (std::size_t i = 1; i < vals.size(); ++i) {
            if (get(i) / 32 == get(i - 1) / 32)
                ++same;
        }
        return same;
    };
    std::size_t before = same_line_pairs(
        [&](std::size_t i) { return vals[i]; });
    std::size_t after = same_line_pairs(
        [&](std::size_t i) { return out[i]; });
    EXPECT_GT(after, 2 * std::max<std::size_t>(before, 1));
}

TEST(ScuGroup, GroupSizeBoundsRunLengths)
{
    // Elements of a single line key are emitted in bursts of at
    // most groupSize.
    Rig r;
    std::vector<std::uint32_t> vals(64, 7); // same line for all
    auto in = r.elems("in", vals);
    Scu::Elems out(r.as, "out", vals.size());
    std::vector<std::uint32_t> order;
    OpOptions g1;
    g1.writeOutput = false;
    g1.makeGroups = true;
    g1.orderOut = &order;
    std::size_t ig = 0;
    r.scu->groupingTable().reset();
    r.scu->dataCompaction(in, vals.size(), nullptr, out, ig, g1);
    ASSERT_EQ(order.size(), vals.size());
    // Emission order must stay index-ordered within the single
    // group key (eviction-by-fullness preserves arrival order).
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LT(order[i - 1], order[i]);
}

// ----------------------------------------------------------------
// Timing behaviour.
// ----------------------------------------------------------------

TEST(ScuTiming, ThroughputScalesWithWidth)
{
    auto run_width = [](unsigned width) {
        sim::ClockDomain clk(1e9);
        stats::StatGroup root("t");
        sim::Simulation sim;
        mem::AddressSpace as(1ULL << 32);
        mem::MemSystemParams mp;
        mp.dram = mem::DramParams::gddr5();
        mem::MemSystem mem(mp, clk, &root);
        ScuParams sp = ScuParams::forGtx980();
        sp.pipelineWidth = width;
        Scu scu(sp, mem, sim, as, &root);

        std::vector<std::uint32_t> vals(100000, 1);
        Scu::Elems in(as, "in", vals.size());
        for (std::size_t i = 0; i < vals.size(); ++i)
            in[i] = vals[i];
        Scu::Elems out(as, "out", vals.size());
        std::size_t n = 0;
        auto st = scu.dataCompaction(in, vals.size(), nullptr, out,
                                     n);
        return st.cycles();
    };
    Tick w1 = run_width(1);
    Tick w4 = run_width(4);
    EXPECT_GT(w1, 3 * w4);
}

TEST(ScuTiming, OpsAdvanceTheSharedClock)
{
    Rig r;
    auto in = r.elems("in", {1, 2, 3});
    Scu::Elems out(r.as, "out", 3);
    std::size_t n = 0;
    Tick before = r.sim.now();
    r.scu->dataCompaction(in, 3, nullptr, out, n);
    EXPECT_GT(r.sim.now(), before);
}

TEST(ScuTiming, TotalsAccumulate)
{
    Rig r;
    auto in = r.elems("in", {1, 2, 3, 4});
    Scu::Elems out(r.as, "out", 4);
    std::size_t n = 0;
    r.scu->dataCompaction(in, 4, nullptr, out, n);
    n = 0;
    r.scu->dataCompaction(in, 4, nullptr, out, n);
    EXPECT_EQ(r.scu->totals().ops, 2u);
    EXPECT_EQ(r.scu->totals().elements, 8u);
    EXPECT_GT(r.scu->totals().busyCycles, 0u);
}

// ----------------------------------------------------------------
// Hash table units.
// ----------------------------------------------------------------

TEST(HashTable, GeometryFromConfig)
{
    HashConfig cfg{1 << 20, 16, 4};
    EXPECT_EQ(cfg.numSets(), (1u << 20) / 64);
    mem::AddressSpace as(1ULL << 28);
    UniqueFilterTable t(cfg, as, "h");
    EXPECT_EQ(t.numSets(), cfg.numSets());
    EXPECT_LT(t.setAddr(t.numSets() - 1),
              t.baseAddr() + cfg.sizeBytes);
}

TEST(HashTable, UniqueProbeSemantics)
{
    mem::AddressSpace as(1ULL << 28);
    UniqueFilterTable t({4096, 4, 4}, as, "h");
    ProbeTraffic tr;
    EXPECT_TRUE(t.probe(42, tr));
    EXPECT_TRUE(tr.wrote);
    EXPECT_FALSE(t.probe(42, tr));
    EXPECT_FALSE(tr.wrote);
    t.reset();
    EXPECT_TRUE(t.probe(42, tr));
}

TEST(HashTable, BestCostProbeSemantics)
{
    mem::AddressSpace as(1ULL << 28);
    BestCostFilterTable t({4096, 4, 8}, as, "h");
    ProbeTraffic tr;
    EXPECT_TRUE(t.probe(9, 100, tr));
    EXPECT_FALSE(t.probe(9, 100, tr)); // tie: not better
    EXPECT_FALSE(t.probe(9, 150, tr)); // worse
    EXPECT_TRUE(t.probe(9, 50, tr));   // better
    EXPECT_FALSE(t.probe(9, 60, tr));  // worse than the update
}

TEST(HashTable, GroupingFlushEmitsEverything)
{
    mem::AddressSpace as(1ULL << 28);
    GroupingTable t({4096, 4, 32}, 8, as, "h");
    std::vector<std::uint32_t> order;
    ProbeTraffic tr;
    for (std::uint32_t i = 0; i < 20; ++i)
        t.probe(i % 3, i, order, tr);
    t.flush(order);
    EXPECT_EQ(order.size(), 20u);
}

TEST(HashTable, ResetMatchesFreshTable)
{
    // A reset table must behave exactly like a freshly constructed
    // one: the same keep decisions, probe traffic and grouping emit
    // order, however full the table was before the reset. Small
    // tables and a key range a few times their capacity exercise
    // duplicates, collisions, victim eviction and full groups.
    const HashConfig unique_cfg{4096, 4, 4};
    const HashConfig cost_cfg{4096, 4, 8};
    const HashConfig group_cfg{4096, 4, 32};
    const unsigned group_size = 4;
    mem::AddressSpace as(1ULL << 28);
    UniqueFilterTable unique(unique_cfg, as, "u");
    BestCostFilterTable cost(cost_cfg, as, "c");
    GroupingTable group(group_cfg, group_size, as, "g");

    auto same = [](const ProbeTraffic &a, const ProbeTraffic &b) {
        return a.setAddr == b.setAddr && a.wrote == b.wrote;
    };
    Rng rng(0x5e7);
    for (int round = 0; round < 40; ++round) {
        // The fresh twins get address spaces of their own, laid out
        // like the reused tables' so set addresses agree.
        mem::AddressSpace fresh_as(1ULL << 28);
        UniqueFilterTable fresh_unique(unique_cfg, fresh_as, "u");
        BestCostFilterTable fresh_cost(cost_cfg, fresh_as, "c");
        GroupingTable fresh_group(group_cfg, group_size, fresh_as, "g");

        std::vector<std::uint32_t> order, fresh_order;
        const std::uint64_t probes = rng.below(1500);
        for (std::uint64_t i = 0; i < probes; ++i) {
            const auto key = static_cast<std::uint32_t>(rng.below(3000));
            ProbeTraffic a, b;
            ASSERT_EQ(unique.probe(key, a), fresh_unique.probe(key, b))
                << "round " << round << " probe " << i;
            ASSERT_TRUE(same(a, b));

            const auto c = static_cast<std::uint32_t>(rng.below(100));
            ASSERT_EQ(cost.probe(key, c, a), fresh_cost.probe(key, c, b))
                << "round " << round << " probe " << i;
            ASSERT_TRUE(same(a, b));

            const std::uint64_t line = rng.below(600);
            const auto elem = static_cast<std::uint32_t>(i);
            group.probe(line, elem, order, a);
            fresh_group.probe(line, elem, fresh_order, b);
            ASSERT_TRUE(same(a, b));
            ASSERT_EQ(order, fresh_order);
        }
        // End the round with a flush (the end of an operation) or
        // drop the groups unseen.
        if (rng.chance(0.5)) {
            group.flush(order);
            fresh_group.flush(fresh_order);
            ASSERT_EQ(order, fresh_order) << "round " << round;
            ASSERT_EQ(order.size(), probes);
        }
        unique.reset();
        cost.reset();
        group.reset();
    }
}

TEST(ScuWindow, RandomOpsMatchPriorityQueue)
{
    // The calendar window against a priority queue of ticks, driven
    // the way the pipeline drives it: within an operation the issue
    // tick t never decreases and every completion pushed is >= t.
    // Operations start with clear(), sometimes at an earlier tick.
    using Reference =
        std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>;
    constexpr Tick horizon = InflightWindow::kRingTicks;
    InflightWindow win;
    Reference ref;
    Rng rng(14);
    Tick t = 0;
    Tick base = 0; // the window's purge cursor, as the test models it
    std::size_t limit = 64;
    std::uint64_t dups = 0, far_pushes = 0, jumps = 0, far_only = 0;
    std::uint64_t full_pops = 0, clears = 0;
    Tick last_push = 0;

    auto purge = [&] {
        win.purgeUpTo(t);
        while (!ref.empty() && ref.top() <= t)
            ref.pop();
        base = std::max(base, t);
    };
    auto push = [&](Tick c) {
        dups += c == last_push;
        last_push = c;
        far_pushes += c - base >= horizon;
        win.push(c);
        ref.push(c);
    };

    for (int op = 0; op < 250000; ++op) {
        const unsigned kind = static_cast<unsigned>(rng.below(1000));
        if (kind < 3) {
            // A new operation reuses the window.
            t = rng.chance(0.5) ? t + rng.below(5000) : rng.below(t + 1);
            win.clear(t);
            ref = Reference();
            base = t;
            limit = 8 + rng.below(64);
            ++clears;
        } else if (kind < 6) {
            // The issue tick jumps further than the ring reaches.
            t += horizon + rng.below(2 * horizon);
            purge();
            ++jumps;
        } else if (kind < 400) {
            // One read issue: purge, pop the earliest when full, push.
            t += rng.below(4);
            purge();
            if (win.size() >= limit) {
                const Tick m = win.popMin();
                ASSERT_EQ(m, ref.top());
                ref.pop();
                t = std::max(t, m);
                base = std::max(base, m);
                ++full_pops;
            }
            const unsigned far = static_cast<unsigned>(rng.below(100));
            if (far < 3)
                push(t + horizon + rng.below(horizon));
            else if (far < 20)
                push(t); // completes at its own issue tick
            else if (far < 40)
                push(std::max(t, last_push)); // a duplicate tick
            else
                push(t + rng.below(3000));
        } else if (kind < 600) {
            t += rng.below(200);
            purge();
        } else if (kind < 700) {
            if (!win.size())
                continue;
            const Tick m = win.popMin();
            ASSERT_EQ(m, ref.top());
            ref.pop();
            t = std::max(t, m);
            base = std::max(base, m);
        } else {
            push(t + (rng.chance(0.02) ? horizon + rng.below(horizon)
                                       : rng.below(2000)));
        }
        ASSERT_EQ(win.size(), ref.size()) << "after op " << op;
        // Every entry past the ring: the ring is empty, the far heap
        // is not.
        far_only += !ref.empty() && ref.top() - base >= horizon;
    }
    // The random walk reached every regime the window has.
    EXPECT_GT(clears, 400u);
    EXPECT_GT(jumps, 500u);
    EXPECT_GT(full_pops, 10000u);
    EXPECT_GT(dups, 5000u);
    EXPECT_GT(far_pushes, 1000u);
    EXPECT_GT(far_only, 100u);
}
