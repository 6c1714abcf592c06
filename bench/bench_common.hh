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
 * A malformed SCUSIM_SCALE or SCUSIM_JOBS exits 2 before any run.
 *
 * The figure benches take no command-line arguments.
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

namespace scusim::bench
{

/**
 * Dataset scale for this process: SCUSIM_SCALE, else @p def. Exits 2
 * unless the whole value parses as a number in (0, 1], so a typo
 * cannot run at an unintended scale.
 */
inline double
benchScale(double def = 0.05)
{
    const char *s = std::getenv("SCUSIM_SCALE");
    if (!s)
        return def;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !(v > 0 && v <= 1.0)) {
        std::fprintf(stderr,
                     "invalid SCUSIM_SCALE='%s': want a number in "
                     "(0, 1]\n",
                     s);
        std::exit(2);
    }
    return v;
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
 * Exit with a usage line if the bench was given any argument, so a
 * mistyped option cannot run unnoticed with the defaults.
 */
inline void
rejectBenchArgs(int argc, char **argv)
{
    if (argc <= 1)
        return;
    std::fprintf(stderr,
                 "usage: %s (no arguments; configure with the "
                 "SCUSIM_* environment variables)\n",
                 argv[0]);
    std::exit(2);
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

/** Execute @p plan, reporting matrix size and worker count. */
inline harness::PlanResults
runBenchPlan(const harness::ExperimentPlan &plan)
{
    auto runs = plan.expand();
    // Resolve SCUSIM_JOBS once, before any run.
    harness::ExecutorOptions opts = benchExecutorOptions();
    opts.jobs = harness::executorJobs();
    std::printf("executing %zu runs on %u workers "
                "(SCUSIM_JOBS to change)...\n",
                runs.size(), opts.jobs);
    return harness::runPlan(runs, opts);
}

/** Reject any command-line argument, then run as runBenchPlan. */
inline harness::PlanResults
runBenchPlan(const harness::ExperimentPlan &plan, int argc,
             char **argv)
{
    rejectBenchArgs(argc, argv);
    return runBenchPlan(plan);
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
