/**
 * @file
 * Parallel experiment executor. Runs an ExperimentPlan on a worker
 * pool of std::threads — every run builds its own System, so runs
 * are fully isolated — with process-wide result memoization,
 * per-run failure capture (a throwing run marks its record failed
 * instead of killing the matrix) and deterministic result ordering
 * regardless of completion order.
 */

#ifndef SCUSIM_HARNESS_EXECUTOR_HH
#define SCUSIM_HARNESS_EXECUTOR_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "harness/plan.hh"

namespace scusim::harness
{

/** Outcome of one planned run. */
struct RunRecord
{
    PlannedRun run;
    RunResult result; ///< meaningful only when ok
    bool ok = false;
    std::string error; ///< what() of the exception, when !ok
    /** Classified failure; empty when ok or for non-SimError throws. */
    std::optional<FailureKind> failure;
    /** Per-component diagnostic dump attached to the failure. */
    std::string diagnostics;
};

/**
 * Results of one executed plan, in plan order. Records are also
 * indexed by matrix coordinates and by label for table printing.
 */
class PlanResults
{
  public:
    PlanResults() = default;
    explicit PlanResults(std::vector<RunRecord> recs);

    const std::vector<RunRecord> &records() const { return recs; }
    std::size_t size() const { return recs.size(); }
    bool empty() const { return recs.empty(); }

    /** Number of failed runs. */
    std::size_t failures() const;

    /**
     * The result at the given matrix coordinates; fatal if the cell
     * is absent, ambiguous (ablation sweeps: use byLabel) or failed.
     */
    const RunResult &get(const std::string &system, Primitive prim,
                         const std::string &dataset,
                         ScuMode mode) const;

    /** The result labelled @p label; fatal if absent or failed. */
    const RunResult &byLabel(const std::string &label) const;

    /**
     * The record at the given matrix coordinates, failed or not;
     * null when absent, fatal when ambiguous. The ok-aware access
     * path benches use to render failed cells instead of dying.
     */
    const RunRecord *cell(const std::string &system, Primitive prim,
                          const std::string &dataset,
                          ScuMode mode) const;

    /** The record labelled @p label; null when absent. */
    const RunRecord *record(const std::string &label) const;

    /**
     * The result at the given matrix coordinates, or null when the
     * cell is absent or failed (fatal only when ambiguous).
     */
    const RunResult *tryGet(const std::string &system,
                            Primitive prim,
                            const std::string &dataset,
                            ScuMode mode) const;

    /** The result labelled @p label, or null if absent or failed. */
    const RunResult *tryByLabel(const std::string &label) const;

  private:
    const RunRecord *find(const std::string &label) const;

    std::vector<RunRecord> recs;
};

/** Worker-pool configuration. */
struct ExecutorOptions
{
    /**
     * Worker count; 0 resolves SCUSIM_JOBS from the environment and
     * falls back to std::thread::hardware_concurrency(). The process
     * exits 2 if SCUSIM_JOBS is set to anything but a whole number
     * >= 1.
     */
    unsigned jobs = 0;
    /**
     * Share results across runPlan() calls in this process. This is
     * the only result cache: no result outlives the process (and so
     * the build) that simulated it. Tests that compare fresh
     * executions turn this off. Failed runs are memoized too: every
     * failure kind is deterministic.
     */
    bool memoize = true;
    /**
     * Default observability configuration merged into every run
     * whose own RunConfig::trace is disabled (typically
     * trace::TraceConfig::fromEnv()). Note that memoized results are
     * served without re-executing, so repeated runs of an identical
     * config within one process do not regenerate trace artifacts.
     */
    trace::TraceConfig trace = {};
    /**
     * Directory for per-run trace artifacts. When a run has tracing
     * enabled but no explicit export paths, the executor fills them
     * with "<traceDir>/<sanitized label>.trace.json" and
     * ".timeseries.csv". Empty leaves pathless runs unexported.
     */
    std::string traceDir = {};
};

/**
 * The resolved worker count runPlan() would use for @p opts. Exits 2
 * on an invalid SCUSIM_JOBS (see ExecutorOptions::jobs).
 */
unsigned executorJobs(const ExecutorOptions &opts = {});

/** Expand and run @p plan. */
PlanResults runPlan(const ExperimentPlan &plan,
                    const ExecutorOptions &opts = {});

/** Run an explicit (already expanded) run list. */
PlanResults runPlan(const std::vector<PlannedRun> &runs,
                    const ExecutorOptions &opts = {});

/** Number of memoized run results held by this process. */
std::size_t memoizedRunCount();

/** Drop all memoized run results (tests). */
void clearRunMemo();

} // namespace scusim::harness

#endif // SCUSIM_HARNESS_EXECUTOR_HH
