/**
 * @file
 * Tests of the declarative plan layer: cartesian expansion and its
 * ordering, run-key identity (the dedup/memoization handle), shared
 * GPU-only baselines under ablation sweeps, scuOverride plumbing and
 * executor failure isolation (a poisoned config must not abort the
 * rest of the matrix).
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "graph/datasets.hh"
#include "harness/executor.hh"
#include "harness/plan.hh"
#include "harness/system.hh"

using namespace scusim;
using namespace scusim::harness;

TEST(Plan, DefaultExpandsToSingleDefaultRun)
{
    auto runs = ExperimentPlan().expand();
    ASSERT_EQ(runs.size(), 1u);
    const RunConfig def;
    EXPECT_EQ(runs[0].key, runKey(def));
    EXPECT_EQ(runs[0].label, runLabel(def));
    EXPECT_EQ(runs[0].label, "BFS/GTX980/cond/gpu-only");
    EXPECT_EQ(runs[0].graph, nullptr);
}

TEST(Plan, CartesianExpansionOrderIsDeterministic)
{
    auto plan = ExperimentPlan()
                    .systems({"GTX980", "TX1"})
                    .primitives({Primitive::Bfs, Primitive::Sssp})
                    .datasets({"cond", "ca"})
                    .modes({ScuMode::GpuOnly, ScuMode::ScuEnhanced});
    auto runs = plan.expand();
    ASSERT_EQ(runs.size(), 2u * 2u * 2u * 2u);
    // Primitive-major, then system, dataset, mode.
    EXPECT_EQ(runs[0].label, "BFS/GTX980/cond/gpu-only");
    EXPECT_EQ(runs[1].label, "BFS/GTX980/cond/scu-enhanced");
    EXPECT_EQ(runs[2].label, "BFS/GTX980/ca/gpu-only");
    EXPECT_EQ(runs[4].label, "BFS/TX1/cond/gpu-only");
    EXPECT_EQ(runs[8].label, "SSSP/GTX980/cond/gpu-only");
    EXPECT_EQ(runs[15].label, "SSSP/TX1/ca/scu-enhanced");
    // Expansion is reproducible.
    auto again = plan.expand();
    ASSERT_EQ(again.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(again[i].key, runs[i].key);
}

TEST(Plan, ModesForPairsEachPrimitiveWithItsModes)
{
    auto runs =
        ExperimentPlan()
            .systems({"TX1"})
            .primitives({Primitive::Bfs, Primitive::Pr})
            .modesFor([](Primitive p) -> std::vector<ScuMode> {
                if (p == Primitive::Pr)
                    return {ScuMode::ScuBasic};
                return {ScuMode::GpuOnly, ScuMode::ScuEnhanced};
            })
            .expand();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].label, "BFS/TX1/cond/gpu-only");
    EXPECT_EQ(runs[1].label, "BFS/TX1/cond/scu-enhanced");
    EXPECT_EQ(runs[2].label, "PR/TX1/cond/scu-basic");
}

TEST(Plan, RunKeyIgnoresScuOverrideForGpuOnly)
{
    RunConfig cfg;
    cfg.mode = ScuMode::GpuOnly;
    auto plain = runKey(cfg);
    cfg.scuOverride = SystemConfig::tx1().scu;
    EXPECT_EQ(runKey(cfg), plain);

    cfg.mode = ScuMode::ScuEnhanced;
    auto with = runKey(cfg);
    cfg.scuOverride->pipelineWidth *= 2;
    EXPECT_NE(runKey(cfg), with);
}

TEST(Plan, RunKeySeparatesEveryScuField)
{
    // The memo is the only result cache, so a key that skipped an SCU
    // field would serve one variant's result for another.
    RunConfig cfg;
    cfg.mode = ScuMode::ScuEnhanced;
    const scu::ScuParams base = SystemConfig::tx1().scu;
    std::vector<std::function<void(scu::ScuParams &)>> edits = {
        [](scu::ScuParams &p) { p.pipelineWidth += 1; },
        [](scu::ScuParams &p) { p.vectorBufferBytes += 1; },
        [](scu::ScuParams &p) { p.fifoRequestBytes += 1; },
        [](scu::ScuParams &p) { p.hashRequestBytes += 1; },
        [](scu::ScuParams &p) { p.coalesceInflight += 1; },
        [](scu::ScuParams &p) { p.mergeWindow += 1; },
        [](scu::ScuParams &p) { p.groupSize += 1; },
        [](scu::ScuParams &p) { p.opSetupCycles += 1; },
        [](scu::ScuParams &p) { p.opDrainCycles += 1; },
    };
    for (auto hash : {&scu::ScuParams::filterBfsHash,
                      &scu::ScuParams::filterSsspHash,
                      &scu::ScuParams::groupHash}) {
        edits.push_back([hash](scu::ScuParams &p) {
            (p.*hash).sizeBytes += 1;
        });
        edits.push_back([hash](scu::ScuParams &p) {
            (p.*hash).ways += 1;
        });
        edits.push_back([hash](scu::ScuParams &p) {
            (p.*hash).entryBytes += 1;
        });
    }

    cfg.scuOverride = base;
    std::set<std::string> keys = {runKey(cfg)};
    for (std::size_t i = 0; i < edits.size(); ++i) {
        cfg.scuOverride = base;
        edits[i](*cfg.scuOverride);
        EXPECT_TRUE(keys.insert(runKey(cfg)).second)
            << "edit " << i << " did not change the key";
    }
    EXPECT_EQ(keys.size(), 9u + 3u * 3u + 1u);
}

TEST(Plan, RunKeySeparatesConfigsAndGraphs)
{
    RunConfig a;
    RunConfig b = a;
    EXPECT_EQ(runKey(a), runKey(b));
    b.scale = 0.26;
    EXPECT_NE(runKey(a), runKey(b));
    b = a;
    b.seed = 2;
    EXPECT_NE(runKey(a), runKey(b));
    b = a;
    b.alg.source = 7;
    EXPECT_NE(runKey(a), runKey(b));

    auto g = graph::makeDataset("cond", 0.01, 1);
    auto h = graph::makeDataset("cond", 0.01, 1);
    EXPECT_NE(runKey(a, &g), runKey(a));
    EXPECT_NE(runKey(a, &g), runKey(a, &h));
}

TEST(Plan, AblationSharesOneGpuOnlyBaseline)
{
    auto base = SystemConfig::tx1().scu;
    std::vector<std::pair<std::string, scu::ScuParams>> vars;
    for (unsigned w : {1u, 2u, 4u}) {
        auto p = base;
        p.pipelineWidth = w;
        vars.emplace_back(std::to_string(w), p);
    }
    auto runs = ExperimentPlan()
                    .systems({"TX1"})
                    .primitives({Primitive::Bfs})
                    .modes({ScuMode::GpuOnly, ScuMode::ScuEnhanced})
                    .ablate("width", vars)
                    .expand();
    // 1 shared baseline + 3 SCU variants, not 2 x 3.
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(runs[0].label, "BFS/TX1/cond/gpu-only");
    EXPECT_EQ(runs[1].label, "BFS/TX1/cond/scu-enhanced/width=1");
    EXPECT_EQ(runs[2].label, "BFS/TX1/cond/scu-enhanced/width=2");
    EXPECT_EQ(runs[3].label, "BFS/TX1/cond/scu-enhanced/width=4");
    // scuOverride reaches the expanded configs.
    ASSERT_TRUE(runs[3].cfg.scuOverride.has_value());
    EXPECT_EQ(runs[3].cfg.scuOverride->pipelineWidth, 4u);
    // The baseline carries an override too, but its key ignores it.
    RunConfig bare;
    bare.systemName = "TX1";
    bare.mode = ScuMode::GpuOnly;
    bare.primitive = Primitive::Bfs;
    EXPECT_EQ(runs[0].key, runKey(bare));
}

TEST(Plan, IdenticalAblationVariantsCollapse)
{
    auto preset = SystemConfig::tx1().scu;
    auto widened = preset;
    widened.pipelineWidth *= 2;
    auto runs =
        ExperimentPlan()
            .systems({"TX1"})
            .primitives({Primitive::Bfs})
            .modes({ScuMode::ScuEnhanced})
            .ablate("width", {{"a", preset},
                              {"b", preset}, // same params, same key
                              {"c", widened}})
            .expand();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].label, "BFS/TX1/cond/scu-enhanced/width=a");
    EXPECT_EQ(runs[1].label, "BFS/TX1/cond/scu-enhanced/width=c");
}

TEST(Plan, AddAppendsExtrasAndDedupsAgainstMatrix)
{
    RunConfig dup; // identical to the declared matrix cell
    RunConfig fresh;
    fresh.alg.source = 42;
    auto runs = ExperimentPlan()
                    .modes({ScuMode::GpuOnly})
                    .add(dup)
                    .add(fresh, "from-42")
                    .expand();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].label, "BFS/GTX980/cond/gpu-only");
    EXPECT_EQ(runs[1].label, "from-42");
    EXPECT_EQ(runs[1].cfg.alg.source, 42u);
}

TEST(Plan, ExtrasOnlyPlanSkipsTheImplicitMatrix)
{
    RunConfig cfg;
    cfg.alg.source = 9;
    auto runs = ExperimentPlan().add(cfg, "only-me").expand();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].label, "only-me");
    // graph()/scale()/seed() are cell parameters, not axes: they do
    // not resurrect the default matrix either.
    auto g = graph::makeDataset("cond", 0.01, 1);
    RunConfig on;
    auto runs2 =
        ExperimentPlan().graph(&g, "mine").add(on, "on-g").expand();
    ASSERT_EQ(runs2.size(), 1u);
    EXPECT_EQ(runs2[0].label, "on-g");
    EXPECT_EQ(runs2[0].graph, &g);
}

TEST(Plan, GraphAxisAttachesCallerGraph)
{
    auto g = graph::makeDataset("cond", 0.01, 1);
    auto runs = ExperimentPlan()
                    .graph(&g, "mine")
                    .systems({"TX1"})
                    .expand();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].graph, &g);
    EXPECT_EQ(runs[0].cfg.dataset, "mine");
    EXPECT_NE(runs[0].key.find("graph="), std::string::npos);
}

TEST(Plan, PoisonedConfigDoesNotAbortTheMatrix)
{
    RunConfig badSystem;
    badSystem.systemName = "Vega";
    badSystem.dataset = "cond";
    badSystem.scale = 0.01;
    RunConfig badDataset;
    badDataset.systemName = "TX1";
    badDataset.dataset = "no-such-dataset";
    badDataset.scale = 0.01;
    auto res = runPlan(ExperimentPlan()
                           .systems({"TX1"})
                           .primitives({Primitive::Bfs})
                           .datasets({"cond"})
                           .modes({ScuMode::ScuEnhanced})
                           .scale(0.01)
                           .add(badSystem, "bad-system")
                           .add(badDataset, "bad-dataset"),
                       {.jobs = 2, .memoize = false});
    ASSERT_EQ(res.size(), 3u);
    EXPECT_EQ(res.failures(), 2u);
    const auto &good = res.records()[0];
    EXPECT_TRUE(good.ok);
    EXPECT_TRUE(good.result.validated);
    const auto &sys = res.records()[1];
    EXPECT_FALSE(sys.ok);
    EXPECT_NE(sys.error.find("Vega"), std::string::npos);
    const auto &ds = res.records()[2];
    EXPECT_FALSE(ds.ok);
    EXPECT_NE(ds.error.find("no-such-dataset"), std::string::npos);
    // The healthy cell is still reachable through the accessors.
    EXPECT_TRUE(res.get("TX1", Primitive::Bfs, "cond",
                        ScuMode::ScuEnhanced)
                    .validated);
}
