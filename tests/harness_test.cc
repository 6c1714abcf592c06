/**
 * @file
 * Integration tests of the harness: system wiring, activity
 * attribution, run metrics and config presets (Tables 2-4).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "graph/datasets.hh"
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
