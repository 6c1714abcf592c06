/**
 * @file
 * Randomized property tests: every SCU operation is compared against
 * a trivially-correct oracle over many random inputs and parameter
 * combinations; cache and DRAM invariants are checked under random
 * access streams; generator properties hold across scales and seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "graph/datasets.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "scu/scu.hh"
#include "sim/clock.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::scu;

namespace
{

/** Everything an SCU property test needs, rebuilt per test. */
struct Rig
{
    Rig() : clk(1e9), root("t"), as(1ULL << 32)
    {
        mem::MemSystemParams mp;
        mp.dram = mem::DramParams::lpddr4();
        memsys = std::make_unique<mem::MemSystem>(mp, clk, &root);
        scu = std::make_unique<Scu>(ScuParams::forTx1(), *memsys,
                                    sim, as, &root);
    }

    sim::ClockDomain clk;
    stats::StatGroup root;
    sim::Simulation sim;
    mem::AddressSpace as;
    std::unique_ptr<mem::MemSystem> memsys;
    std::unique_ptr<Scu> scu;
};

std::vector<std::uint32_t>
randomVec(Rng &rng, std::size_t n, std::uint32_t bound)
{
    std::vector<std::uint32_t> v(n);
    for (auto &x : v)
        x = static_cast<std::uint32_t>(rng.below(bound));
    return v;
}

std::vector<std::uint8_t>
randomMask(Rng &rng, std::size_t n, double p)
{
    std::vector<std::uint8_t> m(n);
    for (auto &x : m)
        x = rng.chance(p) ? 1 : 0;
    return m;
}

/**
 * Stream-compaction oracle built the data-parallel way: an exclusive
 * prefix sum (scan) of each input element's output count gives the
 * offset of its first output, then every element writes (scatters)
 * its outputs from there. Element i's outputs are all @p value(i).
 */
template <typename Value>
std::vector<std::uint32_t>
scanScatter(const std::vector<std::uint32_t> &counts, Value value)
{
    std::vector<std::size_t> offset(counts.size() + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), offset.begin() + 1);
    std::vector<std::uint32_t> out(offset.back());
    for (std::size_t i = 0; i < counts.size(); ++i)
        for (std::uint32_t j = 0; j < counts[i]; ++j)
            out[offset[i] + j] = value(i);
    return out;
}

bool
oracleCompare(std::uint32_t v, CompareOp op, std::uint32_t ref)
{
    switch (op) {
    case CompareOp::Eq: return v == ref;
    case CompareOp::Ne: return v != ref;
    case CompareOp::Lt: return v < ref;
    case CompareOp::Le: return v <= ref;
    case CompareOp::Gt: return v > ref;
    case CompareOp::Ge: return v >= ref;
    }
    return false;
}

} // namespace

class ScuOpProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ScuOpProperty, DataCompactionMatchesOracle)
{
    Rng rng(GetParam());
    Rig r;
    const std::size_t n = 200 + rng.below(800);
    auto vals = randomVec(rng, n, 1 << 20);
    auto mask = randomMask(rng, n, 0.4);

    Scu::Elems in(r.as, "in", n);
    Scu::Flags m(r.as, "m", n);
    Scu::Elems out(r.as, "out", n);
    for (std::size_t i = 0; i < n; ++i) {
        in[i] = vals[i];
        m[i] = mask[i];
    }

    std::size_t got_n = 0;
    r.scu->dataCompaction(in, n, &m, out, got_n);

    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < n; ++i) {
        if (mask[i])
            want.push_back(vals[i]);
    }
    ASSERT_EQ(got_n, want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(out[i], want[i]);
}

TEST_P(ScuOpProperty, AccessExpansionMatchesOracle)
{
    Rng rng(GetParam() * 3 + 1);
    Rig r;
    const std::size_t data_n = 500 + rng.below(500);
    const std::size_t runs = 50 + rng.below(100);
    auto data = randomVec(rng, data_n, 1 << 30);

    std::vector<std::uint32_t> idx(runs), cnt(runs);
    std::size_t total = 0;
    for (std::size_t i = 0; i < runs; ++i) {
        cnt[i] = static_cast<std::uint32_t>(rng.below(9));
        idx[i] = static_cast<std::uint32_t>(
            rng.below(data_n - cnt[i] + 1));
        total += cnt[i];
    }

    Scu::Elems d(r.as, "d", data_n), ix(r.as, "ix", runs),
        c(r.as, "c", runs), out(r.as, "out", total + 1);
    for (std::size_t i = 0; i < data_n; ++i)
        d[i] = data[i];
    for (std::size_t i = 0; i < runs; ++i) {
        ix[i] = idx[i];
        c[i] = cnt[i];
    }

    std::size_t got_n = 0;
    r.scu->accessExpansionCompaction(d, ix, c, runs, nullptr, out,
                                     got_n);

    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < runs; ++i) {
        for (std::uint32_t j = 0; j < cnt[i]; ++j)
            want.push_back(data[idx[i] + j]);
    }
    ASSERT_EQ(got_n, want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(out[i], want[i]);
}

TEST_P(ScuOpProperty, BitmaskConstructorMatchesOracle)
{
    // Every comparison operator, then the flags it built drive a Data
    // Compaction (the BFS contraction chain): the compacted stream
    // must be the scan-then-scatter of the oracle's flags.
    Rng rng(GetParam() * 17 + 9);
    for (const CompareOp op :
         {CompareOp::Eq, CompareOp::Ne, CompareOp::Lt, CompareOp::Le,
          CompareOp::Gt, CompareOp::Ge}) {
        Rig r;
        const std::size_t n = 200 + rng.below(800);
        auto vals = randomVec(rng, n, 64); // small range: Eq hits
        const auto ref = static_cast<std::uint32_t>(rng.below(64));

        Scu::Elems in(r.as, "in", n), out(r.as, "out", n);
        Scu::Flags flags(r.as, "flags", n);
        for (std::size_t i = 0; i < n; ++i)
            in[i] = vals[i];
        r.scu->bitmaskConstructor(in, n, op, ref, flags);

        std::vector<std::uint32_t> keep(n);
        for (std::size_t i = 0; i < n; ++i) {
            keep[i] = oracleCompare(vals[i], op, ref);
            ASSERT_EQ(flags[i], keep[i])
                << "op " << static_cast<int>(op) << ", element " << i;
        }
        std::size_t got_n = 0;
        r.scu->dataCompaction(in, n, &flags, out, got_n);
        const auto want = scanScatter(
            keep, [&](std::size_t i) { return vals[i]; });
        ASSERT_EQ(got_n, want.size()) << "op " << static_cast<int>(op);
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(out[i], want[i]);
    }
}

TEST_P(ScuOpProperty, AccessCompactionMatchesOracle)
{
    Rng rng(GetParam() * 19 + 2);
    Rig r;
    const std::size_t data_n = 300 + rng.below(700);
    const std::size_t n = 200 + rng.below(800);
    auto data = randomVec(rng, data_n, 1 << 30);
    auto idx = randomVec(rng, n, static_cast<std::uint32_t>(data_n));
    auto mask = randomMask(rng, n, 0.4);

    Scu::Elems d(r.as, "d", data_n), ix(r.as, "ix", n),
        out(r.as, "out", n);
    Scu::Flags m(r.as, "m", n);
    for (std::size_t i = 0; i < data_n; ++i)
        d[i] = data[i];
    for (std::size_t i = 0; i < n; ++i) {
        ix[i] = idx[i];
        m[i] = mask[i];
    }

    std::size_t got_n = 0;
    r.scu->accessCompaction(d, ix, n, &m, out, got_n);

    const auto want = scanScatter(
        std::vector<std::uint32_t>(mask.begin(), mask.end()),
        [&](std::size_t i) { return data[idx[i]]; });
    ASSERT_EQ(got_n, want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(out[i], want[i]);
}

TEST_P(ScuOpProperty, ReplicationCompactionMatchesOracle)
{
    Rng rng(GetParam() * 23 + 4);
    Rig r;
    const std::size_t n = 200 + rng.below(800);
    auto vals = randomVec(rng, n, 1 << 20);
    auto cnt = randomVec(rng, n, 9); // includes zero-count elements
    auto mask = randomMask(rng, n, 0.6);

    std::vector<std::uint32_t> counts(n);
    for (std::size_t i = 0; i < n; ++i)
        counts[i] = mask[i] ? cnt[i] : 0;
    const auto want = scanScatter(
        counts, [&](std::size_t i) { return vals[i]; });

    Scu::Elems in(r.as, "in", n), c(r.as, "c", n),
        out(r.as, "out", want.size() + 1);
    Scu::Flags m(r.as, "m", n);
    for (std::size_t i = 0; i < n; ++i) {
        in[i] = vals[i];
        c[i] = cnt[i];
        m[i] = mask[i];
    }

    std::size_t got_n = 0;
    r.scu->replicationCompaction(in, c, n, &m, out, got_n);

    ASSERT_EQ(got_n, want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(out[i], want[i]);
}

TEST_P(ScuOpProperty, FilterNeverDropsFirstSighting)
{
    Rng rng(GetParam() * 7 + 5);
    Rig r;
    const std::size_t n = 2000;
    auto vals = randomVec(rng, n, 400); // heavy duplication

    Scu::Elems in(r.as, "in", n), out(r.as, "out", n);
    for (std::size_t i = 0; i < n; ++i)
        in[i] = vals[i];

    r.scu->uniqueFilter().reset();
    std::vector<std::uint8_t> keep;
    OpOptions o1;
    o1.writeOutput = false;
    o1.filterMode = FilterMode::Unique;
    o1.keepOut = &keep;
    std::size_t ig = 0;
    r.scu->dataCompaction(in, n, nullptr, out, ig, o1);

    // Soundness: the set of kept values covers every distinct value
    // (first occurrences pass; only duplicates may be kept extra).
    std::set<std::uint32_t> kept, all(vals.begin(), vals.end());
    std::map<std::uint32_t, std::size_t> first;
    for (std::size_t i = 0; i < n; ++i) {
        if (!first.count(vals[i]))
            first[vals[i]] = i;
        if (keep[i])
            kept.insert(vals[i]);
    }
    EXPECT_EQ(kept, all);
    for (auto [v, i] : first)
        EXPECT_TRUE(keep[i]) << "first sighting of " << v
                             << " dropped";
}

TEST_P(ScuOpProperty, TwoStepEqualsDirectFilteredCompaction)
{
    Rng rng(GetParam() * 11 + 3);
    Rig r;
    const std::size_t n = 1000;
    auto vals = randomVec(rng, n, 300);

    Scu::Elems in(r.as, "in", n), out(r.as, "out", n);
    for (std::size_t i = 0; i < n; ++i)
        in[i] = vals[i];

    r.scu->uniqueFilter().reset();
    std::vector<std::uint8_t> keep;
    OpOptions o1;
    o1.writeOutput = false;
    o1.filterMode = FilterMode::Unique;
    o1.keepOut = &keep;
    std::size_t ig = 0;
    r.scu->dataCompaction(in, n, nullptr, out, ig, o1);

    OpOptions o2;
    o2.keep = &keep;
    std::size_t got_n = 0;
    r.scu->dataCompaction(in, n, nullptr, out, got_n, o2);

    // Oracle: apply the keep flags directly.
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < n; ++i) {
        if (keep[i])
            want.push_back(vals[i]);
    }
    ASSERT_EQ(got_n, want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(out[i], want[i]);
}

TEST_P(ScuOpProperty, GroupedOutputIsPermutationOfKept)
{
    Rng rng(GetParam() * 13 + 7);
    Rig r;
    const std::size_t n = 1500;
    auto vals = randomVec(rng, n, 5000);
    auto mask = randomMask(rng, n, 0.6);

    Scu::Elems in(r.as, "in", n), out(r.as, "out", n);
    Scu::Flags m(r.as, "m", n);
    for (std::size_t i = 0; i < n; ++i) {
        in[i] = vals[i];
        m[i] = mask[i];
    }

    r.scu->groupingTable().reset();
    std::vector<std::uint32_t> order;
    OpOptions g1;
    g1.writeOutput = false;
    g1.makeGroups = true;
    g1.orderOut = &order;
    std::size_t ig = 0;
    r.scu->dataCompaction(in, n, &m, out, ig, g1);

    OpOptions s2;
    s2.order = &order;
    std::size_t got_n = 0;
    r.scu->dataCompaction(in, n, &m, out, got_n, s2);

    std::multiset<std::uint32_t> want, got;
    for (std::size_t i = 0; i < n; ++i) {
        if (mask[i])
            want.insert(vals[i]);
    }
    for (std::size_t i = 0; i < got_n; ++i)
        got.insert(out[i]);
    EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScuOpProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21,
                                           34));

// ----------------------------------------------------------------
// Memory-system invariants under random streams.
// ----------------------------------------------------------------

class CacheProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheProperty, CompletionNeverBeforeIssue)
{
    auto [ways, banks] = GetParam();
    struct Backing : mem::MemLevel
    {
        mem::MemResult
        access(Tick issue, Addr, mem::AccessKind,
               unsigned) override
        {
            return {issue + 150, false};
        }
    } backing;

    mem::CacheParams p;
    p.sizeBytes = 16 << 10;
    p.ways = ways;
    p.banks = banks;
    p.hitLatency = 12;
    p.mshrs = 16;
    stats::StatGroup g("t");
    mem::Cache c(p, &backing, &g);

    Rng rng(99);
    Tick monotonic_issue = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr a = rng.below(1 << 22) & ~Addr{127};
        auto kind = rng.chance(0.3) ? mem::AccessKind::Write
                                    : mem::AccessKind::Read;
        auto r = c.access(monotonic_issue, a, kind, 128);
        ASSERT_GT(r.complete, monotonic_issue);
        if (rng.chance(0.5))
            ++monotonic_issue;
    }
    EXPECT_GT(c.numHits() + c.numMisses(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(1u, 4u, 16u)));

class DramProperty : public ::testing::TestWithParam<bool>
{
};

TEST_P(DramProperty, CompletionMonotonicPerStream)
{
    const bool sequential = GetParam();
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    mem::Dram d(mem::DramParams::gddr5(), clk, &g);

    Rng rng(5);
    Tick issue = 0;
    for (int i = 0; i < 4000; ++i) {
        Addr a = sequential
                     ? Addr(i) * 128
                     : (rng.below(1 << 26) & ~Addr{127});
        auto r = d.access(issue, a, mem::AccessKind::Read, 128);
        ASSERT_GT(r.complete, issue);
        issue += 1 + rng.below(3);
    }
    if (sequential) {
        EXPECT_GT(d.rowHitRate(), 0.8);
    }
}

INSTANTIATE_TEST_SUITE_P(Streams, DramProperty,
                         ::testing::Bool());

// ----------------------------------------------------------------
// Generator properties across scales.
// ----------------------------------------------------------------

// The dataset name is a std::string, not a const char *: gtest
// prints a pointer parameter as its address, which varies per run
// and would leak into the discovered test names.
using ScaleParam = std::tuple<std::string, double>;

class GeneratorScaleProperty : public ::testing::TestWithParam<ScaleParam>
{
};

TEST_P(GeneratorScaleProperty, DegreePreservedUnderScaling)
{
    auto [name, scale] = GetParam();
    auto g = graph::makeDataset(name, scale, 1);
    g.validate();
    const auto &spec = graph::datasetSpec(name);
    double want_deg = 2.0 * static_cast<double>(spec.edges) /
                      static_cast<double>(spec.nodes);
    // Average degree is scale-invariant within a generous band
    // (generators trim/pad and round node counts).
    EXPECT_NEAR(g.averageDegree(), want_deg, want_deg * 0.35);
}

namespace
{

/** Names such as "ca_1pct": dataset and scale in percent. */
std::string
scaleName(const ::testing::TestParamInfo<ScaleParam> &info)
{
    const auto &[name, scale] = info.param;
    return name + "_" +
           std::to_string(static_cast<int>(scale * 100 + 0.5)) + "pct";
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    ScaleSweep, GeneratorScaleProperty,
    ::testing::Combine(::testing::Values(std::string("ca"),
                                         std::string("cond"),
                                         std::string("kron")),
                       ::testing::Values(0.01, 0.03, 0.06)),
    scaleName);
