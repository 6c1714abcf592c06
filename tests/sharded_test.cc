/**
 * @file
 * Sharded-execution gates.
 *
 * 1-fragment equivalence: forcing the sharded driver with
 * deviceCount == 1 must produce a byte-identical full statistics dump
 * to the plain path — the partitioner copies the parent CSR verbatim,
 * the drivers run the plain runners' loop, and no ghost or exchange
 * code executes. This pins the refactor down: multi-device support
 * may not perturb single-device behavior at all.
 *
 * Multi-device: 2- and 4-device runs must still validate against the
 * serial references on both systems, move boundary traffic over the
 * interconnect, and remain deterministic dump-for-dump.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "harness/runner.hh"

using namespace scusim;
using namespace scusim::harness;

namespace
{

std::string
statsDumpFor(const RunConfig &base, RunResult *out = nullptr)
{
    RunConfig cfg = base;
    std::ostringstream os;
    cfg.dumpStatsTo = &os;
    RunResult r = runPrimitive(cfg);
    EXPECT_TRUE(r.validated)
        << to_string(cfg.primitive) << " on " << cfg.systemName
        << " with " << cfg.deviceCount
        << " device(s) failed functional validation";
    EXPECT_FALSE(os.str().empty());
    if (out)
        *out = r;
    return os.str();
}

RunConfig
baseConfig(Primitive prim, const std::string &system)
{
    RunConfig cfg;
    cfg.systemName = system;
    cfg.primitive = prim;
    cfg.mode = ScuMode::ScuEnhanced;
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    return cfg;
}

class ShardedGate
    : public ::testing::TestWithParam<
          std::tuple<Primitive, std::string>>
{
};

TEST_P(ShardedGate, OneFragmentMatchesThePlainPathByteForByte)
{
    const auto [prim, system] = GetParam();
    RunConfig cfg = baseConfig(prim, system);

    const std::string plain = statsDumpFor(cfg);

    cfg.sharded = true;
    cfg.deviceCount = 1;
    RunResult r;
    const std::string sharded = statsDumpFor(cfg, &r);

    ASSERT_EQ(plain.size(), sharded.size());
    EXPECT_EQ(plain, sharded)
        << "sharded deviceCount=1 dump diverged from the plain path";
    EXPECT_EQ(r.deviceCount, 1u);
    ASSERT_EQ(r.devices.size(), 1u);
    EXPECT_EQ(r.icnMessages, 0u);
    EXPECT_EQ(r.devices[0].gpuEdgeWork, r.algMetrics.gpuEdgeWork);
}

TEST_P(ShardedGate, TwoAndFourDevicesValidate)
{
    const auto [prim, system] = GetParam();
    for (unsigned numDev : {2u, 4u}) {
        RunConfig cfg = baseConfig(prim, system);
        cfg.deviceCount = numDev;
        RunResult r;
        statsDumpFor(cfg, &r);
        EXPECT_EQ(r.deviceCount, numDev);
        ASSERT_EQ(r.devices.size(), numDev);
        std::uint64_t work = 0;
        for (const DeviceMetrics &dm : r.devices)
            work += dm.gpuEdgeWork;
        EXPECT_EQ(work, r.algMetrics.gpuEdgeWork);
        // A connected frontier cannot stay on one device: some
        // boundary traffic must have crossed the interconnect.
        EXPECT_GT(r.icnMessages, 0u);
        EXPECT_GE(r.icnBytes, 8 * r.icnMessages);
    }
}

TEST_P(ShardedGate, TwoDeviceRunsAreDeterministic)
{
    const auto [prim, system] = GetParam();
    RunConfig cfg = baseConfig(prim, system);
    cfg.deviceCount = 2;

    const std::string first = statsDumpFor(cfg);
    const std::string second = statsDumpFor(cfg);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(first, second)
        << "2-device stats dumps diverged between identical runs";
}

INSTANTIATE_TEST_SUITE_P(
    AllPrimitivesBothSystems, ShardedGate,
    ::testing::Combine(::testing::Values(Primitive::Bfs,
                                         Primitive::Sssp,
                                         Primitive::Pr),
                       ::testing::Values(std::string("GTX980"),
                                         std::string("TX1"))),
    [](const auto &info) {
        return to_string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

} // namespace
