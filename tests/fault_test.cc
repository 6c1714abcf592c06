/**
 * @file
 * Tests of the robustness stack: the thread-local error trap, the
 * simulation's progress watchdog, the deterministic fault injector,
 * and the supervised executor above them. The heart of the suite is
 * the fault matrix — every armed FaultKind must be *detected* and
 * classified as its designed FailureKind on both modeled systems —
 * plus the inverse guarantee: an armed-but-never-fired injector
 * leaves the run byte-identical to an uninjected one.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/sim_error.hh"
#include "harness/executor.hh"
#include "harness/plan.hh"
#include "harness/results.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"

using namespace scusim;
using namespace scusim::harness;

namespace
{

/** The smallest real workload: BFS on cond at 1% scale. */
RunConfig
tinyConfig(const std::string &sys = "GTX980",
           ScuMode mode = ScuMode::GpuOnly)
{
    RunConfig cfg;
    cfg.systemName = sys;
    cfg.mode = mode;
    cfg.primitive = Primitive::Bfs;
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    return cfg;
}

/** Execute one config fresh (no memoization, serial). */
RunRecord
runOne(const RunConfig &cfg)
{
    ExperimentPlan p;
    p.add(cfg);
    auto res = runPlan(p, {.jobs = 1, .memoize = false});
    return res.records().at(0);
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

std::string
jsonOf(const PlanResults &res)
{
    std::ostringstream os;
    writeRunsJson(os, res);
    return os.str();
}

const char *const kSystems[] = {"GTX980", "TX1"};

} // namespace

// ---------------------------------------------------------------
// Error trap
// ---------------------------------------------------------------

TEST(ErrorTrap, NestsAndRestores)
{
    EXPECT_FALSE(errorTrapActive());
    {
        ErrorTrapGuard outer;
        EXPECT_TRUE(errorTrapActive());
        {
            ErrorTrapGuard inner;
            EXPECT_TRUE(errorTrapActive());
        }
        EXPECT_TRUE(errorTrapActive());
    }
    EXPECT_FALSE(errorTrapActive());
}

TEST(ErrorTrap, PanicThrowsSimErrorUnderTrap)
{
    ErrorTrapGuard trap;
    try {
        panic("boom %d", 42);
        FAIL() << "panic returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), FailureKind::Panic);
        EXPECT_NE(std::string(e.what()).find("boom 42"),
                  std::string::npos);
    }
}

TEST(ErrorTrap, ReportFailureCarriesKindAndDiagnostics)
{
    ErrorTrapGuard trap;
    try {
        reportFailure(FailureKind::Deadlock, "stuck", "dump line");
        FAIL() << "reportFailure returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), FailureKind::Deadlock);
        EXPECT_EQ(e.diagnostics(), "dump line");
        EXPECT_STREQ(to_string(e.kind()), "deadlock");
    }
}

TEST(ErrorTrap, TimeoutThrowsEvenWithoutATrap)
{
    // Only supervisors raise Timeout, and a supervisor implies a
    // trap — but the contract is that Timeout never aborts.
    EXPECT_FALSE(errorTrapActive());
    EXPECT_THROW(reportFailure(FailureKind::Timeout, "late"),
                 SimError);
}

// ---------------------------------------------------------------
// Watchdog (raw Simulation, toy components)
// ---------------------------------------------------------------

namespace
{

/** Busy forever; makes progress only when asked to. */
struct Spinner : sim::Clocked
{
    bool productive = false;

    void
    tick(Tick) override
    {
        if (productive)
            noteProgress();
    }

    bool busy(Tick) const override { return true; }
};

/** Drains after a fixed number of productive ticks. */
struct Countdown : sim::Clocked
{
    int left = 16;

    void
    tick(Tick) override
    {
        if (left > 0) {
            --left;
            noteProgress();
        }
    }

    bool busy(Tick) const override { return left > 0; }
};

} // namespace

TEST(Watchdog, BusyWithoutProgressIsDeadlock)
{
    sim::Simulation s;
    Spinner c;
    s.addClocked(&c, "spinner");
    s.setWatchdog({.tickBudget = 0, .stallWindow = 64});
    ErrorTrapGuard trap;
    try {
        s.run(1 << 20);
        FAIL() << "deadlock not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), FailureKind::Deadlock);
        // The dump names the hung component and its busy state.
        EXPECT_NE(e.diagnostics().find("spinner"),
                  std::string::npos)
            << e.diagnostics();
        EXPECT_NE(e.diagnostics().find("busy=yes"),
                  std::string::npos)
            << e.diagnostics();
    }
}

TEST(Watchdog, TickBudgetExceededIsRunaway)
{
    sim::Simulation s;
    Spinner c;
    c.productive = true; // progress forever: not a deadlock
    s.addClocked(&c, "spinner");
    s.setWatchdog({.tickBudget = 128, .stallWindow = 1 << 20});
    ErrorTrapGuard trap;
    try {
        s.run();
        FAIL() << "runaway not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), FailureKind::Runaway);
        EXPECT_FALSE(e.diagnostics().empty());
    }
}

TEST(Watchdog, HealthyRunDrainsUnmolested)
{
    sim::Simulation s;
    Countdown c;
    s.addClocked(&c, "countdown");
    s.setWatchdog({.tickBudget = 1 << 20, .stallWindow = 64});
    ErrorTrapGuard trap;
    EXPECT_NO_THROW(s.run());
    EXPECT_EQ(c.left, 0);
}

// ---------------------------------------------------------------
// Fault injector (unit)
// ---------------------------------------------------------------

TEST(FaultInjector, DeterministicAcrossInstances)
{
    sim::FaultPlan plan;
    plan.add({.kind = sim::FaultKind::MemDelay,
              .at = 10,
              .magnitude = 500});
    sim::FaultInjector a(plan, 42);
    sim::FaultInjector b(plan, 42);
    EXPECT_EQ(a.adjustMemCompletion(20, 30),
              b.adjustMemCompletion(20, 30));
    EXPECT_EQ(a.rng().next(), b.rng().next());
    EXPECT_EQ(a.fired(sim::FaultKind::MemDelay), 1u);
}

TEST(FaultInjector, MemFaultsFireOnceAndReorderClampsAtZero)
{
    sim::FaultPlan plan;
    plan.add({.kind = sim::FaultKind::MemDelay,
              .at = 0,
              .magnitude = 100});
    plan.add({.kind = sim::FaultKind::MemReorder,
              .at = 0,
              .magnitude = 1000});
    sim::FaultInjector inj(plan, 1);
    // Delay fires first (+100), then reorder pulls far below the
    // issue tick — clamped at 0, never wrapped around.
    EXPECT_EQ(inj.adjustMemCompletion(50, 60), 0u);
    // Both are one-shot: later accesses pass through untouched.
    EXPECT_EQ(inj.adjustMemCompletion(70, 80), 80u);
    EXPECT_EQ(inj.fired(sim::FaultKind::MemDelay), 1u);
    EXPECT_EQ(inj.fired(sim::FaultKind::MemReorder), 1u);
}

TEST(FaultPlan, SpecParsingRoundTripsTheFingerprint)
{
    // The --inject syntax is the fingerprint syntax: parse every
    // shape back and compare field by field.
    auto s = sim::parseFaultSpec("mem-delay@1000x500");
    EXPECT_EQ(s.kind, sim::FaultKind::MemDelay);
    EXPECT_EQ(s.at, 1000u);
    EXPECT_EQ(s.magnitude, 500u);
    EXPECT_EQ(s.target, 0u);

    s = sim::parseFaultSpec("fifo-stall@42t3");
    EXPECT_EQ(s.kind, sim::FaultKind::FifoStall);
    EXPECT_EQ(s.at, 42u);
    EXPECT_EQ(s.target, 3u);

    s = sim::parseFaultSpec("icn-delay@0x1000000");
    EXPECT_EQ(s.kind, sim::FaultKind::IcnDelay);
    EXPECT_EQ(s.magnitude, 1000000u);

    s = sim::parseFaultSpec("dram-refresh-storm@7");
    EXPECT_EQ(s.kind, sim::FaultKind::DramRefreshStorm);
    EXPECT_EQ(s.at, 7u);

    // A parsed plan fingerprints identically to a built one.
    sim::FaultPlan built;
    built.add({.kind = sim::FaultKind::MemDelay,
               .at = 1000,
               .magnitude = 500});
    sim::FaultPlan parsed;
    parsed.add(sim::parseFaultSpec("mem-delay@1000x500"));
    EXPECT_EQ(built.fingerprint(), parsed.fingerprint());

    EXPECT_EQ(sim::faultKindFromString("panic-at"),
              sim::FaultKind::PanicAt);
    EXPECT_EQ(sim::faultKindFromString("icn-delay"),
              sim::FaultKind::IcnDelay);
}

TEST(FaultPlan, FingerprintIsCanonical)
{
    sim::FaultPlan a;
    sim::FaultPlan b;
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    a.add({.kind = sim::FaultKind::PanicAt, .at = 5});
    b.add({.kind = sim::FaultKind::PanicAt, .at = 5});
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.add({.kind = sim::FaultKind::FifoStall, .at = 1, .target = 2});
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------
// Fault matrix: every FaultKind -> its designed FailureKind, on
// both modeled systems
// ---------------------------------------------------------------

TEST(FaultMatrix, PanicAtIsClassifiedPanic)
{
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys);
        cfg.faults.add({.kind = sim::FaultKind::PanicAt, .at = 0});
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Panic);
        EXPECT_NE(rec.error.find("injected panic"),
                  std::string::npos)
            << rec.error;
    }
}

TEST(FaultMatrix, MemDelayTripsTheTickBudgetAsRunaway)
{
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys);
        cfg.faults.add({.kind = sim::FaultKind::MemDelay,
                        .at = 0,
                        .magnitude = 1'000'000'000'000'000ULL});
        cfg.guards.tickBudget = 1'000'000'000;
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Runaway);
        EXPECT_FALSE(rec.diagnostics.empty()) << rec.error;
    }
}

TEST(FaultMatrix, MemReorderViolatesTheCompletionInvariant)
{
    if (!sim::checksEnabled)
        GTEST_SKIP() << "SCUSIM_CHECK not compiled in";
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys);
        cfg.faults.add({.kind = sim::FaultKind::MemReorder,
                        .at = 0,
                        .magnitude = 1'000'000});
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Invariant);
        EXPECT_NE(rec.error.find("precedes issue"),
                  std::string::npos)
            << rec.error;
    }
}

TEST(FaultMatrix, FifoStallHangsTheSmAsDeadlock)
{
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys);
        cfg.faults.add({.kind = sim::FaultKind::FifoStall,
                        .at = 1000,
                        .target = 0});
        cfg.guards.stallWindow = 20000;
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Deadlock);
        // The dump must point at the hung SM.
        EXPECT_NE(rec.diagnostics.find("sm0"), std::string::npos)
            << rec.diagnostics;
    }
}

TEST(FaultMatrix, ComponentFreezeIsDeadlock)
{
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys);
        cfg.faults.add({.kind = sim::FaultKind::ComponentFreeze,
                        .at = 1000,
                        .target = 0});
        cfg.guards.stallWindow = 20000;
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Deadlock);
        EXPECT_NE(rec.diagnostics.find("frozen"), std::string::npos)
            << rec.diagnostics;
    }
}

TEST(FaultMatrix, IcnDelayTripsTheTickBudgetAsRunaway)
{
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys);
        cfg.faults.add({.kind = sim::FaultKind::IcnDelay,
                        .at = 0,
                        .magnitude = 1'000'000'000'000'000ULL});
        cfg.guards.tickBudget = 1'000'000'000;
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Runaway);
        EXPECT_FALSE(rec.diagnostics.empty()) << rec.error;
    }
}

TEST(FaultMatrix, IcnDelayOnTheDeviceLinkIsRunawayToo)
{
    // target=1 aims the delay at the inter-device link instead of
    // the GPU<->memory crossing: a 2-device run's first boundary
    // exchange then schedules an arrival far past the tick budget.
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys);
        cfg.deviceCount = 2;
        cfg.faults.add({.kind = sim::FaultKind::IcnDelay,
                        .at = 0,
                        .magnitude = 1'000'000'000'000'000ULL,
                        .target = 1});
        cfg.guards.tickBudget = 1'000'000'000;
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Runaway);
        EXPECT_FALSE(rec.diagnostics.empty()) << rec.error;
    }
}

TEST(FaultMatrix, DramRefreshStormTripsTheTickBudgetAsRunaway)
{
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys);
        cfg.faults.add({.kind = sim::FaultKind::DramRefreshStorm,
                        .at = 0,
                        .magnitude = 1'000'000'000'000'000ULL});
        cfg.guards.tickBudget = 1'000'000'000;
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Runaway);
        EXPECT_FALSE(rec.diagnostics.empty()) << rec.error;
    }
}

TEST(FaultMatrix, HashCorruptTripsTheParityInvariant)
{
    if (!sim::checksEnabled)
        GTEST_SKIP() << "SCUSIM_CHECK not compiled in";
    for (const auto *sys : kSystems) {
        RunConfig cfg = tinyConfig(sys, ScuMode::ScuEnhanced);
        cfg.faults.add({.kind = sim::FaultKind::HashCorrupt,
                        .at = 0});
        auto rec = runOne(cfg);
        expectFailure(rec, FailureKind::Invariant);
        EXPECT_NE(rec.error.find("parity"), std::string::npos)
            << rec.error;
    }
}

// ---------------------------------------------------------------
// Supervision: wall-clock budget, retry, memoization
// ---------------------------------------------------------------

TEST(Supervision, WallClockBudgetIsTimeoutAndRetried)
{
    RunConfig cfg = tinyConfig();
    cfg.guards.wallSeconds = 1e-9; // expires at the first checkpoint
    ExperimentPlan p;
    p.add(cfg);
    auto res = runPlan(p, {.jobs = 1, .memoize = false,
                           .maxRetries = 1});
    const auto &rec = res.records().at(0);
    expectFailure(rec, FailureKind::Timeout);
    // Timeout is a transient kind: one retry was granted, and it
    // waited exactly the deterministic seed-derived backoff the
    // failures report surfaces.
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_EQ(rec.backoffMs, retryBackoffMs(cfg.seed, 1, 25, 2000));
    EXPECT_GT(rec.backoffMs, 0u);
}

TEST(Supervision, TimeoutsAreNeverMemoized)
{
    clearRunMemo();
    RunConfig cfg = tinyConfig();
    cfg.guards.wallSeconds = 1e-9;
    ExperimentPlan p;
    p.add(cfg);
    auto res = runPlan(p, {.jobs = 1}); // memoization on
    expectFailure(res.records().at(0), FailureKind::Timeout);
    EXPECT_EQ(memoizedRunCount(), 0u);
    clearRunMemo();
}

// ---------------------------------------------------------------
// Pristine-path guarantees and graceful degradation
// ---------------------------------------------------------------

TEST(FaultPlan, ArmedButUnfiredInjectorIsByteIdenticalToNone)
{
    RunConfig clean = tinyConfig();
    RunConfig armed = tinyConfig();
    // Armed far past the drain tick: every hook is consulted but
    // no fault ever fires.
    armed.faults.add({.kind = sim::FaultKind::PanicAt,
                      .at = static_cast<Tick>(1) << 60});

    ExperimentPlan pc;
    pc.add(clean, "cell");
    ExperimentPlan pa;
    pa.add(armed, "cell");
    auto rc = runPlan(pc, {.jobs = 1, .memoize = false});
    auto ra = runPlan(pa, {.jobs = 1, .memoize = false});
    EXPECT_TRUE(rc.records().at(0).ok);
    EXPECT_TRUE(ra.records().at(0).ok);
    EXPECT_EQ(jsonOf(rc), jsonOf(ra));
}

TEST(Degradation, FaultedCellDoesNotPoisonTheMatrix)
{
    ExperimentPlan p;
    p.add(tinyConfig("GTX980", ScuMode::GpuOnly));
    p.add(tinyConfig("GTX980", ScuMode::ScuBasic));
    RunConfig bad = tinyConfig("GTX980", ScuMode::ScuEnhanced);
    bad.faults.add({.kind = sim::FaultKind::PanicAt, .at = 0});
    p.add(bad);

    auto res = runPlan(p, {.jobs = 2, .memoize = false});
    ASSERT_EQ(res.size(), 3u);
    EXPECT_EQ(res.failures(), 1u);
    EXPECT_TRUE(res.records().at(0).ok);
    EXPECT_TRUE(res.records().at(1).ok);
    expectFailure(res.records().at(2), FailureKind::Panic);

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
    EXPECT_EQ(*cell->failure, FailureKind::Panic);
    EXPECT_EQ(res.record(res.records().at(2).run.label), cell);
    EXPECT_EQ(res.tryByLabel(res.records().at(2).run.label),
              nullptr);

    // The machine-readable failure report names the bad cell.
    std::ostringstream os;
    writeFailureReport(os, res);
    EXPECT_NE(os.str().find("\"failureKind\":\"panic\""),
              std::string::npos)
        << os.str();
}

TEST(Degradation, FailureReportArtifactIsWritten)
{
    RunConfig bad = tinyConfig();
    bad.faults.add({.kind = sim::FaultKind::PanicAt, .at = 0});
    ExperimentPlan p;
    p.add(bad);
    auto res = runPlan(p, {.jobs = 1, .memoize = false});
    ASSERT_EQ(res.failures(), 1u);

    const std::filesystem::path dir = "fault_test_artifacts";
    std::filesystem::create_directories(dir);
    ::setenv("SCUSIM_ARTIFACT_DIR", dir.c_str(), 1);
    Table t("fault artifact test");
    t.header({"col"});
    t.row({"val"});
    writeArtifact("fault_probe", res, {&t});
    ::unsetenv("SCUSIM_ARTIFACT_DIR");

    std::ifstream f(dir / "fault_probe.failures.json");
    ASSERT_TRUE(f.good()) << "failure report not written";
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("\"failureKind\":\"panic\""),
              std::string::npos)
        << ss.str();
    f.close();
    std::filesystem::remove_all(dir);
}
