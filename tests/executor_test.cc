/**
 * @file
 * Tests of the parallel executor: serial and parallel executions of
 * the same plan must produce bit-identical results (and byte-equal
 * JSON artifacts), result order must follow plan order regardless of
 * completion order, memoization must share run results across
 * runPlan() calls, and a failed run must fail only its own cell.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/executor.hh"
#include "harness/plan.hh"
#include "harness/results.hh"

using namespace scusim;
using namespace scusim::harness;

namespace
{

/** The determinism workload: 2 datasets x 2 modes x BFS/SSSP. */
ExperimentPlan
smallMatrix()
{
    return ExperimentPlan()
        .systems({"TX1"})
        .primitives({Primitive::Bfs, Primitive::Sssp})
        .datasets({"cond", "ca"})
        .modes({ScuMode::GpuOnly, ScuMode::ScuEnhanced})
        .scale(0.01);
}

std::string
jsonOf(const PlanResults &res)
{
    std::ostringstream os;
    writeRunsJson(os, res);
    return os.str();
}

/** The smallest real workload: BFS on cond at 1% scale. */
RunConfig
tinyConfig(ScuMode mode = ScuMode::GpuOnly)
{
    RunConfig cfg;
    cfg.systemName = "GTX980";
    cfg.mode = mode;
    cfg.primitive = Primitive::Bfs;
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    return cfg;
}

/** tinyConfig() with a tick budget far below its drain tick. */
RunConfig
runawayConfig(ScuMode mode = ScuMode::GpuOnly)
{
    RunConfig cfg = tinyConfig(mode);
    cfg.guards.tickBudget = 1000;
    return cfg;
}

void
expectFailure(const RunRecord &rec, FailureKind want)
{
    EXPECT_FALSE(rec.ok) << rec.run.label << " unexpectedly ok";
    ASSERT_TRUE(rec.failure.has_value())
        << rec.run.label << ": unclassified error: " << rec.error;
    EXPECT_EQ(*rec.failure, want)
        << rec.run.label << ": " << rec.error;
}

} // namespace

TEST(Executor, JobsResolutionOrder)
{
    EXPECT_EQ(executorJobs({.jobs = 3}), 3u);
    ::setenv("SCUSIM_JOBS", "5", 1);
    EXPECT_EQ(executorJobs(), 5u);
    EXPECT_EQ(executorJobs({.jobs = 2}), 2u); // explicit wins
    ::unsetenv("SCUSIM_JOBS");
    EXPECT_GE(executorJobs(), 1u);
}

TEST(Executor, MalformedJobsExits)
{
    // Each value used to be read by atoi: "2x" ran on 2 workers,
    // the others fell back to every core with a warning.
    for (const char *bad : {"2x", "abc", "0", "-3", "+2", " 2", "",
                            "99999999999999999999"}) {
        ::setenv("SCUSIM_JOBS", bad, 1);
        EXPECT_EXIT(executorJobs(), ::testing::ExitedWithCode(2),
                    "invalid SCUSIM_JOBS")
            << "SCUSIM_JOBS='" << bad << "'";
    }
    ::setenv("SCUSIM_JOBS", "12", 1);
    EXPECT_EQ(executorJobs(), 12u);
    ::unsetenv("SCUSIM_JOBS");
}

TEST(Executor, ParallelRunMatchesSerialBitForBit)
{
    auto plan = smallMatrix();
    auto serial = runPlan(plan, {.jobs = 1, .memoize = false});
    auto parallel = runPlan(plan, {.jobs = 4, .memoize = false});

    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(serial.failures(), 0u);
    EXPECT_EQ(parallel.failures(), 0u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const auto &a = serial.records()[i];
        const auto &b = parallel.records()[i];
        EXPECT_EQ(a.run.label, b.run.label);
        EXPECT_EQ(a.run.key, b.run.key);
        EXPECT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.result.totalCycles, b.result.totalCycles);
        EXPECT_EQ(a.result.seconds, b.result.seconds);
        EXPECT_EQ(a.result.energy.totalJ(),
                  b.result.energy.totalJ());
        EXPECT_EQ(a.result.gpuCompactionCycles,
                  b.result.gpuCompactionCycles);
        EXPECT_EQ(a.result.gpuThreadInstrs,
                  b.result.gpuThreadInstrs);
        EXPECT_EQ(a.result.bwUtilization, b.result.bwUtilization);
        EXPECT_EQ(a.result.algMetrics.gpuEdgeWork,
                  b.result.algMetrics.gpuEdgeWork);
        EXPECT_EQ(a.result.algMetrics.scuFiltered,
                  b.result.algMetrics.scuFiltered);
        EXPECT_EQ(a.result.validated, b.result.validated);
    }
    // The strongest form: the machine-readable artifacts are
    // byte-identical.
    EXPECT_EQ(jsonOf(serial), jsonOf(parallel));

    std::ostringstream ca, cb;
    writeRunsCsv(ca, serial);
    writeRunsCsv(cb, parallel);
    EXPECT_EQ(ca.str(), cb.str());
}

TEST(Executor, ResultsFollowPlanOrder)
{
    auto plan = smallMatrix();
    auto runs = plan.expand();
    auto res = runPlan(plan, {.jobs = 4, .memoize = false});
    ASSERT_EQ(res.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(res.records()[i].run.key, runs[i].key);
}

TEST(Executor, MemoizationSharesRunsAcrossPlans)
{
    clearRunMemo();
    EXPECT_EQ(memoizedRunCount(), 0u);

    auto plan = ExperimentPlan()
                    .systems({"TX1"})
                    .primitives({Primitive::Bfs})
                    .datasets({"cond"})
                    .modes({ScuMode::GpuOnly, ScuMode::ScuEnhanced})
                    .scale(0.01);
    auto first = runPlan(plan, {.jobs = 2});
    EXPECT_EQ(memoizedRunCount(), 2u);

    auto second = runPlan(plan, {.jobs = 2});
    EXPECT_EQ(memoizedRunCount(), 2u); // nothing new simulated
    EXPECT_EQ(jsonOf(first), jsonOf(second));

    // A different config is a different key: the memo grows.
    auto third =
        runPlan(plan.modes({ScuMode::ScuBasic}), {.jobs = 2});
    EXPECT_EQ(memoizedRunCount(), 3u);
    EXPECT_EQ(third.failures(), 0u);

    clearRunMemo();
    EXPECT_EQ(memoizedRunCount(), 0u);
}

TEST(Executor, MemoizedFailuresAreReplayedNotRerun)
{
    clearRunMemo();
    RunConfig bad;
    bad.systemName = "Vega";
    auto plan = ExperimentPlan().add(bad, "poison");
    auto first = runPlan(plan, {.jobs = 1});
    ASSERT_EQ(first.failures(), 1u);
    EXPECT_EQ(memoizedRunCount(), 1u);
    auto second = runPlan(plan, {.jobs = 1});
    ASSERT_EQ(second.failures(), 1u);
    EXPECT_EQ(second.records()[0].error, first.records()[0].error);
    clearRunMemo();
}

TEST(Executor, DuplicateKeysShareOneExecution)
{
    // Two labels, one key: the ablation-baseline sharing pattern.
    RunConfig cfg;
    cfg.systemName = "TX1";
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    cfg.mode = ScuMode::GpuOnly;
    auto res = runPlan(ExperimentPlan()
                           .add(cfg, "first-label")
                           .add(cfg, "second-label"),
                       {.jobs = 2, .memoize = false});
    // expand() dedups identical keys: only one record remains, and
    // both of its would-be aliases resolve through byLabel on the
    // surviving record.
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res.records()[0].run.label, "first-label");
    EXPECT_TRUE(res.byLabel("first-label").validated);
}

TEST(Executor, GuardedRunsKeyApart)
{
    // A tick budget decides whether a run completes, so a guarded
    // cell must never share a memo entry with its pristine twin,
    // whichever of the two runs first.
    const RunConfig pristine = tinyConfig();
    const RunConfig guarded = runawayConfig();
    const auto both = ExperimentPlan()
                          .add(pristine, "pristine")
                          .add(guarded, "guarded")
                          .expand();
    ASSERT_EQ(both.size(), 2u);
    EXPECT_NE(both[0].key, both[1].key);

    const ExecutorOptions opts{.jobs = 1, .memoize = true};
    for (const bool guardedFirst : {false, true}) {
        clearRunMemo();
        PlanResults ok, failed;
        if (guardedFirst)
            failed = runPlan(ExperimentPlan().add(guarded), opts);
        ok = runPlan(ExperimentPlan().add(pristine), opts);
        if (!guardedFirst)
            failed = runPlan(ExperimentPlan().add(guarded), opts);
        ASSERT_EQ(ok.size(), 1u);
        ASSERT_EQ(failed.size(), 1u);
        EXPECT_TRUE(ok.records()[0].ok)
            << "guarded first: " << guardedFirst << ": "
            << ok.records()[0].error;
        EXPECT_TRUE(ok.records()[0].result.validated);
        expectFailure(failed.records()[0], FailureKind::Runaway);
    }
    clearRunMemo();
}

TEST(Degradation, FaultedCellDoesNotPoisonTheMatrix)
{
    ExperimentPlan p;
    p.add(tinyConfig(ScuMode::GpuOnly));
    p.add(tinyConfig(ScuMode::ScuBasic));
    p.add(runawayConfig(ScuMode::ScuEnhanced));

    auto res = runPlan(p, {.jobs = 2, .memoize = false});
    ASSERT_EQ(res.size(), 3u);
    EXPECT_EQ(res.failures(), 1u);
    EXPECT_TRUE(res.records().at(0).ok);
    EXPECT_TRUE(res.records().at(1).ok);
    expectFailure(res.records().at(2), FailureKind::Runaway);

    // The ok-aware accessors benches render failed cells with.
    EXPECT_NE(res.tryGet("GTX980", Primitive::Bfs, "cond",
                         ScuMode::GpuOnly),
              nullptr);
    EXPECT_EQ(res.tryGet("GTX980", Primitive::Bfs, "cond",
                         ScuMode::ScuEnhanced),
              nullptr);
    const RunRecord *cell = res.cell("GTX980", Primitive::Bfs,
                                     "cond", ScuMode::ScuEnhanced);
    ASSERT_NE(cell, nullptr);
    EXPECT_FALSE(cell->ok);
    ASSERT_TRUE(cell->failure.has_value());
    EXPECT_EQ(*cell->failure, FailureKind::Runaway);
    EXPECT_EQ(res.record(res.records().at(2).run.label), cell);
    EXPECT_EQ(res.tryByLabel(res.records().at(2).run.label),
              nullptr);

    // The machine-readable failure report names the bad cell.
    std::ostringstream os;
    writeFailureReport(os, res);
    EXPECT_NE(os.str().find("\"failureKind\":\"runaway\""),
              std::string::npos)
        << os.str();
}

TEST(Degradation, FailureReportArtifactIsWritten)
{
    ExperimentPlan p;
    p.add(runawayConfig());
    auto res = runPlan(p, {.jobs = 1, .memoize = false});
    ASSERT_EQ(res.failures(), 1u);

    const std::filesystem::path dir = "executor_test_artifacts";
    std::filesystem::create_directories(dir);
    ::setenv("SCUSIM_ARTIFACT_DIR", dir.c_str(), 1);
    Table t("failure artifact test");
    t.header({"col"});
    t.row({"val"});
    writeArtifact("failure_probe", res, {&t});
    ::unsetenv("SCUSIM_ARTIFACT_DIR");

    std::ifstream f(dir / "failure_probe.failures.json");
    ASSERT_TRUE(f.good()) << "failure report not written";
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("\"failureKind\":\"runaway\""),
              std::string::npos)
        << ss.str();
    f.close();
    std::filesystem::remove_all(dir);
}
