/**
 * @file
 * Determinism gate: the same RunConfig must produce byte-identical
 * full statistics dumps when run twice. The stats tree flattens every
 * counter in every component (caches, DRAM, SMs, SCU pipeline, hash
 * tables), so byte equality here means the whole simulation — not
 * just the headline metrics — retraced the same trajectory. This is
 * the property the parallel experiment executor and the simlint
 * nondeterminism rules exist to protect.
 *
 * ModelGolden goes one step further: each cell of the golden matrix
 * (tests/golden.hh) must reproduce the cycle count and stats-dump
 * digest committed in tests/golden/model_digests.txt, so model drift
 * across commits fails here. After an intended model change, rerun
 * golden_bless and commit the rewritten file.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "golden.hh"
#include "harness/runner.hh"

using namespace scusim;
using namespace scusim::harness;

namespace scusim::golden
{
void
PrintTo(const Cell &c, std::ostream *os)
{
    *os << c.name();
}
} // namespace scusim::golden

namespace
{

std::string
statsDumpFor(const RunConfig &base)
{
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

class DeterminismGate
    : public ::testing::TestWithParam<std::tuple<Primitive, std::string>>
{
};

TEST_P(DeterminismGate, RepeatedRunsDumpIdenticalStats)
{
    const auto [prim, system] = GetParam();

    RunConfig cfg;
    cfg.systemName = system;
    cfg.primitive = prim;
    cfg.mode = ScuMode::ScuEnhanced;
    cfg.dataset = "cond";
    cfg.scale = 0.01;

    const std::string first = statsDumpFor(cfg);
    const std::string second = statsDumpFor(cfg);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(first, second)
        << "stats dumps diverged between identical runs";
}

// Instance names keep their "_dev1" suffix so they stay unchanged.
INSTANTIATE_TEST_SUITE_P(
    AllPrimitivesBothSystems, DeterminismGate,
    ::testing::Combine(::testing::Values(Primitive::Bfs,
                                         Primitive::Sssp,
                                         Primitive::Pr),
                       ::testing::Values(std::string("GTX980"),
                                         std::string("TX1"))),
    [](const auto &info) {
        return to_string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param) + "_dev1";
    });

class ModelGolden : public ::testing::TestWithParam<golden::Cell>
{
};

TEST_P(ModelGolden, StatsDumpMatchesCommittedDigest)
{
    static const auto committed = golden::readDigests();
    const golden::Cell &cell = GetParam();
    const auto it = committed.find(cell.name());
    ASSERT_NE(it, committed.end())
        << "no committed golden for " << cell.name() << " in "
        << SCUSIM_GOLDEN_DIGESTS << "; run golden_bless";
    const golden::Digest got = golden::runCell(cell);
    EXPECT_TRUE(got.validated) << "functional validation failed";
    EXPECT_EQ(golden::formatLine(cell.name(), got),
              golden::formatLine(cell.name(), it->second))
        << "the model changed; if that is intended, rerun "
           "golden_bless and commit the diff";
}

INSTANTIATE_TEST_SUITE_P(, ModelGolden,
                         ::testing::ValuesIn(golden::matrix()),
                         [](const auto &info) {
                             return info.param.name();
                         });

} // namespace
