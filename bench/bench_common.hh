/**
 * @file
 * Shared vocabulary of the per-figure benchmark binaries. Each
 * binary declares its run matrix as an harness::ExperimentPlan,
 * executes it on the parallel executor (SCUSIM_JOBS workers), prints
 * the paper-style tables and emits JSON/CSV artifacts via
 * harness::writeArtifact.
 *
 * Environment:
 *   SCUSIM_SCALE        dataset scale factor (default 0.05)
 *   SCUSIM_JOBS         executor worker count (default: all cores)
 *   SCUSIM_ARTIFACT_DIR where artifacts land (default ".")
 *   SCUSIM_TRACE_MASK   enable per-run tracing (trace-enabled builds)
 *   SCUSIM_TRACE_PERIOD timeseries sampling window, ticks
 *
 * Command line (every bench binary):
 *   --inject <kind>@<tick>[x<magnitude>][t<target>]
 *       arm a deterministic fault in every run of the matrix;
 *       repeatable. Kinds: see sim::FaultKind / `--inject help`.
 */

#ifndef SCUSIM_BENCH_BENCH_COMMON_HH
#define SCUSIM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/executor.hh"
#include "harness/plan.hh"
#include "harness/results.hh"
#include "sim/fault.hh"

namespace scusim::bench
{

/** Dataset scale for this process: SCUSIM_SCALE, else @p def. */
inline double
benchScale(double def = 0.05)
{
    if (const char *s = std::getenv("SCUSIM_SCALE"))
        return std::atof(s);
    return def;
}

/** Names of the six benchmark datasets, Table 5 order. */
inline const std::vector<std::string> &
benchDatasets()
{
    static const std::vector<std::string> d{
        "ca", "cond", "delaunay", "human", "kron", "msdoor"};
    return d;
}

/** The two evaluated systems, Tables 3/4 order. */
inline const std::vector<std::string> &
benchSystems()
{
    static const std::vector<std::string> s{"GTX980", "TX1"};
    return s;
}

/** The three primitives of the evaluation. */
inline const std::vector<harness::Primitive> &
benchPrimitives()
{
    static const std::vector<harness::Primitive> p{
        harness::Primitive::Bfs, harness::Primitive::Sssp,
        harness::Primitive::Pr};
    return p;
}

/** The paper's SCU mode for @p prim: PR does not use the enhanced
 *  capabilities (Section 4.6). */
inline harness::ScuMode
scuModeFor(harness::Primitive prim)
{
    return prim == harness::Primitive::Pr
               ? harness::ScuMode::ScuBasic
               : harness::ScuMode::ScuEnhanced;
}

/**
 * Parse the shared bench command line: every "--inject <spec>" arms
 * one fault (syntax "<kind>@<tick>[x<magnitude>][t<target>]", see
 * sim::parseFaultSpec) in every run of the plan. Exits with usage on
 * anything unrecognized, so a typo can't silently run pristine.
 */
inline sim::FaultPlan
parseBenchArgs(int argc, char **argv)
{
    sim::FaultPlan faults;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--inject" && i + 1 < argc) {
            faults.add(sim::parseFaultSpec(argv[++i]));
            continue;
        }
        std::fprintf(stderr,
                     "usage: %s [--inject "
                     "<kind>@<tick>[x<magnitude>][t<target>]]...\n",
                     argv[0]);
        std::exit(2);
    }
    return faults;
}

/**
 * Executor options shared by the bench binaries: tracing defaults
 * from the environment, per-run trace artifacts next to the bench's
 * own artifacts.
 */
inline harness::ExecutorOptions
benchExecutorOptions()
{
    harness::ExecutorOptions opts;
    opts.trace = trace::TraceConfig::fromEnv();
    opts.traceDir = harness::artifactDir();
    return opts;
}

/**
 * Executor options for a plan that carries @p faults. An armed fault
 * plan also arms the detection guards: a chaos run without a tick
 * budget or stall window would just absorb the fault into an
 * absurd-but-"successful" cycle count instead of rendering the
 * FAIL(<kind>) cell the injection exists to demonstrate. Both bounds
 * are far above anything a healthy run reaches, and they are only
 * applied when faults are armed, so pristine runs keep the
 * executor's usual (wall-clock-only) supervision.
 */
inline harness::ExecutorOptions
benchExecutorOptions(const sim::FaultPlan &faults)
{
    harness::ExecutorOptions opts = benchExecutorOptions();
    if (!faults.empty()) {
        if (!opts.guards.tickBudget)
            opts.guards.tickBudget = 1'000'000'000;
        if (!opts.guards.stallWindow)
            opts.guards.stallWindow = 1'000'000;
    }
    return opts;
}

/** Execute @p plan, reporting matrix size and worker count. */
inline harness::PlanResults
runBenchPlan(const harness::ExperimentPlan &plan)
{
    auto runs = plan.expand();
    std::printf("executing %zu runs on %u workers "
                "(SCUSIM_JOBS to change)...\n",
                runs.size(), harness::executorJobs());
    return harness::runPlan(runs, benchExecutorOptions());
}

/**
 * Execute @p plan with the shared command line applied: parses
 * --inject faults into every run (arming the chaos guards, see
 * above), then runs as runBenchPlan does.
 */
inline harness::PlanResults
runBenchPlan(harness::ExperimentPlan plan, int argc, char **argv)
{
    sim::FaultPlan faults = parseBenchArgs(argc, argv);
    harness::ExecutorOptions opts = benchExecutorOptions(faults);
    auto runs = plan.faults(std::move(faults)).expand();
    std::printf("executing %zu runs on %u workers "
                "(SCUSIM_JOBS to change)...\n",
                runs.size(), harness::executorJobs());
    return harness::runPlan(runs, opts);
}

inline std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

/**
 * Cell text for a missing or failed run: "FAIL(<kind>)" with the
 * classified failure kind ("FAIL(missing)" when the plan never
 * produced the cell, "FAIL(error)" for unclassified exceptions).
 * Benches render this instead of dying so one poisoned run degrades
 * a single cell, not the whole table.
 */
inline std::string
failCell(const harness::RunRecord *rec)
{
    if (!rec)
        return "FAIL(missing)";
    if (rec->failure)
        return std::string("FAIL(") + to_string(*rec->failure) + ")";
    return "FAIL(error)";
}

} // namespace scusim::bench

#endif // SCUSIM_BENCH_BENCH_COMMON_HH
