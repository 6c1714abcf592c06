/**
 * @file
 * Integration tests of the harness: system wiring, activity
 * attribution, run metrics and config presets (Tables 2-4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "alg/bfs.hh"
#include "alg/pagerank.hh"
#include "alg/serial.hh"
#include "alg/sssp.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "harness/runner.hh"
#include "harness/system.hh"

using namespace scusim;
using namespace scusim::harness;

TEST(SystemConfig, PresetsMatchTables)
{
    auto hp = SystemConfig::gtx980();
    EXPECT_EQ(hp.gpu.numSms, 16u);                      // Table 3
    EXPECT_EQ(hp.gpu.maxThreadsPerSm, 2048u);
    EXPECT_EQ(hp.gpu.memsys.l2.sizeBytes, 2u << 20);
    EXPECT_DOUBLE_EQ(hp.gpu.memsys.dram.peakBytesPerSec, 224e9);
    EXPECT_DOUBLE_EQ(hp.gpu.freqHz, 1.27e9);
    EXPECT_EQ(hp.scu.pipelineWidth, 4u);                // Table 2
    EXPECT_EQ(hp.scu.filterBfsHash.sizeBytes, 1u << 20);

    auto lp = SystemConfig::tx1();
    EXPECT_EQ(lp.gpu.numSms, 2u);                       // Table 4
    EXPECT_EQ(lp.gpu.maxThreadsPerSm, 256u);
    EXPECT_EQ(lp.gpu.memsys.l2.sizeBytes, 256u << 10);
    EXPECT_DOUBLE_EQ(lp.gpu.memsys.dram.peakBytesPerSec, 25.6e9);
    EXPECT_EQ(lp.scu.pipelineWidth, 1u);
    EXPECT_EQ(lp.scu.filterBfsHash.sizeBytes, 132u << 10);

    // Table 1 constants shared by both.
    EXPECT_EQ(hp.scu.vectorBufferBytes, 5u << 10);
    EXPECT_EQ(hp.scu.fifoRequestBytes, 38u << 10);
    EXPECT_EQ(hp.scu.hashRequestBytes, 18u << 10);
    EXPECT_EQ(hp.scu.coalesceInflight, 32u);
    EXPECT_EQ(hp.scu.mergeWindow, 4u);
}

TEST(SystemConfig, ByName)
{
    EXPECT_EQ(SystemConfig::byName("TX1").gpu.name, "TX1");
    EXPECT_EQ(SystemConfig::byName("GTX980").gpu.name, "GTX980");
    EXPECT_DEATH(SystemConfig::byName("Vega"), "unknown system");
}

TEST(System, ScuPresenceFollowsConfig)
{
    System with(SystemConfig::tx1(true));
    EXPECT_TRUE(with.hasScu());
    System without(SystemConfig::tx1(false));
    EXPECT_FALSE(without.hasScu());
    EXPECT_DEATH(without.scuDevice(), "without an SCU");
}

TEST(System, ScuSectionAttributesActivity)
{
    System sys(SystemConfig::tx1(true));
    auto &as = sys.addressSpace();
    scu::Scu::Elems in(as, "in", 1000);
    scu::Scu::Elems out(as, "out", 1000);
    for (std::size_t i = 0; i < 1000; ++i)
        in[i] = static_cast<std::uint32_t>(i);

    std::size_t n = 0;
    sys.scuSection([&] {
        sys.scuDevice().dataCompaction(in, 1000, nullptr, out, n);
    });
    const auto &scu_act = sys.scuActivity();
    EXPECT_GT(scu_act.scuElements, 0.0);
    // GPU side saw nothing.
    auto gpu_act = sys.gpuActivity();
    EXPECT_DOUBLE_EQ(gpu_act.scuElements, 0.0);
    EXPECT_DOUBLE_EQ(gpu_act.threadInstrs, 0.0);
}

TEST(Runner, EndToEndTinyRun)
{
    RunConfig cfg;
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    cfg.systemName = "TX1";
    cfg.primitive = Primitive::Bfs;
    cfg.mode = ScuMode::ScuEnhanced;
    auto r = runPrimitive(cfg);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.energy.totalJ(), 0.0);
    EXPECT_GE(r.compactionShare(), 0.0);
    EXPECT_LE(r.compactionShare(), 1.0);
    EXPECT_GT(r.bwUtilization, 0.0);
    EXPECT_LE(r.bwUtilization, 1.0);
    EXPECT_GT(r.l2HitRate, 0.0);
    EXPECT_LE(r.l2HitRate, 1.0);
}

TEST(Runner, DatasetCacheReturnsSameGraph)
{
    const auto &a = cachedDataset("cond", 0.01, 1);
    const auto &b = cachedDataset("cond", 0.01, 1);
    EXPECT_EQ(&a, &b);
    const auto &c = cachedDataset("cond", 0.01, 2);
    EXPECT_NE(&a, &c);
}

TEST(Runner, DatasetCacheKeysScaleExactly)
{
    // Scales equal to six decimals are still different graphs.
    const auto &a = cachedDataset("kron", 0.01, 1);
    const auto &b = cachedDataset("kron", 0.0100004, 1);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(b.numEdges(),
              graph::makeDataset("kron", 0.0100004, 1).numEdges());
    EXPECT_NE(a.numEdges(), b.numEdges());
}

TEST(Runner, ToStringHelpers)
{
    EXPECT_EQ(to_string(Primitive::Bfs), "BFS");
    EXPECT_EQ(to_string(Primitive::Sssp), "SSSP");
    EXPECT_EQ(to_string(Primitive::Pr), "PR");
    EXPECT_EQ(to_string(ScuMode::GpuOnly), "gpu-only");
    EXPECT_EQ(to_string(ScuMode::ScuBasic), "scu-basic");
    EXPECT_EQ(to_string(ScuMode::ScuEnhanced), "scu-enhanced");
}

TEST(Runner, StatsDumpContainsComponents)
{
    RunConfig cfg;
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    cfg.systemName = "TX1";
    cfg.primitive = Primitive::Bfs;
    cfg.mode = ScuMode::ScuEnhanced;
    std::ostringstream os;
    cfg.dumpStatsTo = &os;
    runPrimitive(cfg);
    std::string out = os.str();
    EXPECT_NE(out.find("memsys.dram.reads"), std::string::npos);
    EXPECT_NE(out.find("memsys.l2.hits"), std::string::npos);
    EXPECT_NE(out.find("scu.elements"), std::string::npos);
    EXPECT_NE(out.find("gpu.sm0.issued_instrs"),
              std::string::npos);
}

// perfbench/driver.cc's traced pass drives each cell through the
// runner step API, with the exact calls below, and requires the
// cycles and stats dump of the untraced runPrimitive call.
TEST(Runner, StepApiMatchesRun)
{
    const graph::CsrGraph &g = cachedDataset("cond", 0.01);
    const auto part = graph::GraphPartition::build(g, 1);
    const graph::CsrGraph &fg = part.fragment(0).csr;
    // runPrimitive's source: the first max-degree node of the first
    // 1024.
    NodeId source = 0;
    for (NodeId u = 0; u < std::min<NodeId>(g.numNodes(), 1024); ++u) {
        if (g.degree(u) > g.degree(source))
            source = u;
    }

    for (Primitive prim : {Primitive::Bfs, Primitive::Sssp,
                           Primitive::Pr}) {
        for (const char *system : {"GTX980", "TX1"}) {
            for (ScuMode mode : {ScuMode::GpuOnly, ScuMode::ScuBasic,
                                 ScuMode::ScuEnhanced}) {
                SCOPED_TRACE(to_string(prim) + "/" + system + "/" +
                             to_string(mode));
                RunConfig cfg;
                cfg.systemName = system;
                cfg.primitive = prim;
                cfg.mode = mode;
                cfg.dataset = "cond";
                cfg.scale = 0.01;
                std::ostringstream want;
                cfg.dumpStatsTo = &want;
                const RunResult r = runPrimitive(cfg, g);
                ASSERT_TRUE(r.validated);

                System sys(SystemConfig::byName(
                    system, mode != ScuMode::GpuOnly));
                alg::AlgOptions opt;
                opt.mode = mode;
                opt.source = source;
                alg::AlgMetrics m;
                switch (prim) {
                  case Primitive::Bfs: {
                    alg::BfsRunner run(sys, 0, fg, &part);
                    run.beginRun(opt);
                    std::uint32_t level = 0;
                    while (!run.frontierEmpty() &&
                           level < opt.maxIterations) {
                        ++level;
                        ++m.iterations;
                        run.runLevel(level, m, nullptr);
                    }
                    std::vector<std::uint32_t> dist(g.numNodes(), infDist);
                    run.collect(dist);
                    EXPECT_EQ(dist, alg::serialBfs(g, source));
                    break;
                  }
                  case Primitive::Sssp: {
                    alg::SsspRunner run(sys, 0, fg, &part);
                    run.beginRun(opt);
                    unsigned iters = 0;
                    while ((!run.nearEmpty() || !run.farEmpty()) &&
                           iters < opt.maxIterations) {
                        while (!run.nearEmpty() &&
                               iters < opt.maxIterations) {
                            ++iters;
                            ++m.iterations;
                            run.nearIteration(m, nullptr);
                        }
                        if (run.nearEmpty() && run.farEmpty())
                            break;
                        run.advanceThreshold();
                        if (!run.farEmpty())
                            run.farPhase(m);
                    }
                    std::vector<std::uint32_t> dist(g.numNodes(), infDist);
                    run.collect(dist);
                    EXPECT_EQ(dist, alg::serialDijkstra(g, source));
                    break;
                  }
                  case Primitive::Pr: {
                    alg::PageRankRunner run(sys, 0, fg, &part);
                    run.beginRun(opt);
                    for (unsigned it = 0; it < opt.prMaxIterations;
                         ++it) {
                        ++m.iterations;
                        run.iterate(m, nullptr);
                        if (run.dampen() <
                            static_cast<float>(opt.prEpsilon))
                            break;
                    }
                    std::vector<float> ranks(g.numNodes(), 0.0f);
                    run.collect(ranks);
                    const auto ref = alg::serialPageRank(
                        g, 0.15, opt.prEpsilon, opt.prMaxIterations);
                    ASSERT_EQ(ranks.size(), ref.size());
                    for (std::size_t u = 0; u < ref.size(); ++u)
                        EXPECT_NEAR(ranks[u], ref[u],
                                    1e-2 * std::max(1.0, ref[u]));
                    break;
                  }
                }

                std::ostringstream got;
                sys.statsRoot().dumpAll(got);
                EXPECT_EQ(sys.simulation().now(), r.totalCycles);
                EXPECT_EQ(got.str(), want.str());
                EXPECT_EQ(m.iterations, r.algMetrics.iterations);
                EXPECT_EQ(m.gpuEdgeWork, r.algMetrics.gpuEdgeWork);
                EXPECT_EQ(m.scuFiltered, r.algMetrics.scuFiltered);
            }
        }
    }
}

TEST(Runner, EnergyBreakdownConsistent)
{
    RunConfig cfg;
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    cfg.systemName = "GTX980";
    cfg.primitive = Primitive::Pr;
    cfg.mode = ScuMode::ScuBasic;
    cfg.alg.prMaxIterations = 2;
    auto r = runPrimitive(cfg);
    EXPECT_NEAR(r.energy.totalJ(),
                r.energy.gpuSideJ() + r.energy.scuSideJ(), 1e-12);
    EXPECT_GT(r.energy.scuDynamicJ, 0.0);
}
