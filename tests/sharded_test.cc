/**
 * @file
 * Sharded-execution gates.
 *
 * runPrimitive runs every cell on one device; the sharded drivers
 * (alg/sharded.hh) are driven here directly, on a System built with
 * SystemConfig::deviceCount devices.
 *
 * 1-fragment equivalence: the sharded driver on one device must
 * produce a byte-identical full statistics dump to the plain
 * runPrimitive path — the partitioner copies the parent CSR verbatim,
 * the drivers run the plain runners' loop, and no ghost or exchange
 * code executes. perfbench's traced pass relies on this seam.
 *
 * Multi-device: 2- and 4-device runs must still validate against the
 * serial references on both systems, move boundary traffic over the
 * interconnect, and remain deterministic dump-for-dump.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "alg/serial.hh"
#include "alg/sharded.hh"
#include "graph/partition.hh"
#include "harness/runner.hh"
#include "harness/system.hh"

using namespace scusim;
using namespace scusim::harness;

namespace
{

const graph::CsrGraph &
testGraph()
{
    return cachedDataset("cond", 0.01);
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

/** runPrimitive's source: the first max-degree node of the first
 *  1024. */
NodeId
pickSource(const graph::CsrGraph &g)
{
    NodeId source = 0;
    for (NodeId u = 0; u < std::min<NodeId>(g.numNodes(), 1024); ++u) {
        if (g.degree(u) > g.degree(source))
            source = u;
    }
    return source;
}

struct ShardedRun
{
    std::string dump;
    bool validated = false;
    alg::AlgMetrics metrics;
    std::vector<alg::AlgMetrics> perDevice;
    std::uint64_t icnMessages = 0;
    std::uint64_t icnBytes = 0;
};

/** One sharded run of @p prim in ScuEnhanced mode on cond @0.01. */
ShardedRun
runSharded(Primitive prim, const std::string &system, unsigned numDev)
{
    const graph::CsrGraph &g = testGraph();
    SystemConfig sc = SystemConfig::byName(system, true);
    sc.deviceCount = numDev;
    System sys(sc);
    const auto part = graph::GraphPartition::build(g, numDev);

    alg::AlgOptions opt;
    opt.mode = ScuMode::ScuEnhanced;
    opt.source = pickSource(g);

    ShardedRun run;
    switch (prim) {
      case Primitive::Bfs: {
        const alg::BfsResult out =
            alg::shardedBfs(sys, part, opt, &run.perDevice);
        run.metrics = out.metrics;
        run.validated = out.dist == alg::serialBfs(g, opt.source);
        break;
      }
      case Primitive::Sssp: {
        const alg::SsspResult out =
            alg::shardedSssp(sys, g, part, opt, &run.perDevice);
        run.metrics = out.metrics;
        run.validated =
            out.dist == alg::serialDijkstra(g, opt.source);
        break;
      }
      case Primitive::Pr: {
        const alg::PrResult out =
            alg::shardedPr(sys, part, opt, &run.perDevice);
        run.metrics = out.metrics;
        const auto want = alg::serialPageRank(
            g, 0.15, opt.prEpsilon, opt.prMaxIterations);
        run.validated = out.ranks.size() == want.size();
        for (std::size_t u = 0; run.validated && u < want.size(); ++u) {
            const double denom = std::max(1.0, std::fabs(want[u]));
            run.validated =
                std::fabs(want[u] - out.ranks[u]) / denom <= 1e-2;
        }
        break;
      }
    }
    EXPECT_TRUE(run.validated)
        << to_string(prim) << " on " << system << " with " << numDev
        << " device(s) failed functional validation";

    if (sys.hasInterconnect()) {
        run.icnMessages = sys.interconnect().messageCount();
        run.icnBytes = sys.interconnect().byteCount();
    }
    std::ostringstream os;
    sys.statsRoot().dumpAll(os);
    run.dump = os.str();
    EXPECT_FALSE(run.dump.empty());
    return run;
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
    std::ostringstream os;
    cfg.dumpStatsTo = &os;
    const RunResult plain = runPrimitive(cfg, testGraph());
    EXPECT_TRUE(plain.validated);

    const ShardedRun sharded = runSharded(prim, system, 1);

    ASSERT_EQ(os.str().size(), sharded.dump.size());
    EXPECT_EQ(os.str(), sharded.dump)
        << "1-device sharded dump diverged from the plain path";
    ASSERT_EQ(sharded.perDevice.size(), 1u);
    EXPECT_EQ(sharded.icnMessages, 0u);
    EXPECT_EQ(sharded.perDevice[0].gpuEdgeWork,
              plain.algMetrics.gpuEdgeWork);
    EXPECT_EQ(sharded.metrics.gpuEdgeWork, plain.algMetrics.gpuEdgeWork);
}

TEST_P(ShardedGate, TwoAndFourDevicesValidate)
{
    const auto [prim, system] = GetParam();
    for (unsigned numDev : {2u, 4u}) {
        const ShardedRun r = runSharded(prim, system, numDev);
        ASSERT_EQ(r.perDevice.size(), numDev);
        std::uint64_t work = 0;
        for (const alg::AlgMetrics &dm : r.perDevice)
            work += dm.gpuEdgeWork;
        EXPECT_EQ(work, r.metrics.gpuEdgeWork);
        // A connected frontier cannot stay on one device: some
        // boundary traffic must have crossed the interconnect.
        EXPECT_GT(r.icnMessages, 0u);
        EXPECT_GE(r.icnBytes, 8 * r.icnMessages);
    }
}

TEST_P(ShardedGate, TwoDeviceRunsAreDeterministic)
{
    const auto [prim, system] = GetParam();
    const std::string first = runSharded(prim, system, 2).dump;
    const std::string second = runSharded(prim, system, 2).dump;
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
