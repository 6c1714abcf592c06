#include "harness/executor.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "graph/datasets.hh"

namespace scusim::harness
{

namespace
{

std::mutex memoMutex;
std::map<std::string, RunRecord> &
memo()
{
    static std::map<std::string, RunRecord> m;
    return m;
}

/** Copy the outcome fields of @p from into @p to (not the run). */
void
copyOutcome(RunRecord &to, const RunRecord &from)
{
    to.result = from.result;
    to.ok = from.ok;
    to.error = from.error;
    to.failure = from.failure;
    to.diagnostics = from.diagnostics;
}

/** File-name-safe rendering of a run label. */
std::string
sanitizeLabel(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    for (char c : label) {
        bool keep = (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_';
        out.push_back(keep ? c : '-');
    }
    return out;
}

/**
 * Merge executor-level tracing defaults into one run's config and
 * fill the per-run artifact paths from opts.traceDir.
 */
void
mergeTrace(RunConfig &cfg, const std::string &label,
           const ExecutorOptions &opts)
{
    if (!cfg.trace.enabled && opts.trace.enabled)
        cfg.trace = opts.trace;
    if (!cfg.trace.enabled || opts.traceDir.empty())
        return;
    const std::string stem =
        opts.traceDir + "/" + sanitizeLabel(label);
    if (cfg.trace.exportPath.empty())
        cfg.trace.exportPath = stem + ".trace.json";
    if (cfg.trace.timeseriesPath.empty() &&
        cfg.trace.timeseriesPeriod)
        cfg.trace.timeseriesPath = stem + ".timeseries.csv";
}

/**
 * Validate and execute one run. User errors that runPrimitive()
 * would treat as fatal (unknown system or dataset, bad scale) are
 * thrown instead so one poisoned config cannot abort the matrix.
 */
RunResult
checkedRun(const RunConfig &cfg, const graph::CsrGraph *g)
{
    if (!SystemConfig::isKnown(cfg.systemName))
        throw std::invalid_argument("unknown system '" +
                                    cfg.systemName + "'");
    if (!g) {
        bool known = false;
        for (const auto &spec : graph::datasetTable())
            known = known || spec.name == cfg.dataset;
        if (!known)
            throw std::invalid_argument("unknown dataset '" +
                                        cfg.dataset + "'");
        if (cfg.scale <= 0 || cfg.scale > 1.0)
            throw std::invalid_argument(
                "scale must be in (0, 1], got " +
                std::to_string(cfg.scale));
    }
    return g ? runPrimitive(cfg, *g) : runPrimitive(cfg);
}

} // namespace

PlanResults::PlanResults(std::vector<RunRecord> r)
    : recs(std::move(r))
{
}

std::size_t
PlanResults::failures() const
{
    std::size_t n = 0;
    for (const auto &r : recs)
        n += !r.ok;
    return n;
}

const RunRecord *
PlanResults::find(const std::string &label) const
{
    const RunRecord *hit = nullptr;
    for (const auto &r : recs) {
        if (r.run.label == label) {
            fatal_if(hit, "ambiguous result label '%s'",
                     label.c_str());
            hit = &r;
        }
    }
    return hit;
}

const RunResult &
PlanResults::get(const std::string &system, Primitive prim,
                 const std::string &dataset, ScuMode mode) const
{
    RunConfig cfg;
    cfg.systemName = system;
    cfg.primitive = prim;
    cfg.dataset = dataset;
    cfg.mode = mode;
    return byLabel(runLabel(cfg));
}

const RunResult &
PlanResults::byLabel(const std::string &label) const
{
    const RunRecord *r = find(label);
    fatal_if(!r, "no run result labelled '%s'", label.c_str());
    fatal_if(!r->ok, "run '%s' failed: %s", label.c_str(),
             r->error.c_str());
    return r->result;
}

const RunRecord *
PlanResults::cell(const std::string &system, Primitive prim,
                  const std::string &dataset, ScuMode mode) const
{
    RunConfig cfg;
    cfg.systemName = system;
    cfg.primitive = prim;
    cfg.dataset = dataset;
    cfg.mode = mode;
    return find(runLabel(cfg));
}

const RunRecord *
PlanResults::record(const std::string &label) const
{
    return find(label);
}

const RunResult *
PlanResults::tryGet(const std::string &system, Primitive prim,
                    const std::string &dataset, ScuMode mode) const
{
    const RunRecord *r = cell(system, prim, dataset, mode);
    return r && r->ok ? &r->result : nullptr;
}

const RunResult *
PlanResults::tryByLabel(const std::string &label) const
{
    const RunRecord *r = find(label);
    return r && r->ok ? &r->result : nullptr;
}

unsigned
executorJobs(const ExecutorOptions &opts)
{
    if (opts.jobs)
        return opts.jobs;
    if (const char *s = std::getenv("SCUSIM_JOBS")) {
        // Digits only, so "2x", "+2" and " 2" are refused, not read
        // as 2.
        char *end = nullptr;
        errno = 0;
        const unsigned long n = std::strtoul(s, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(*s)) ||
            *end != '\0' || errno == ERANGE || n == 0 ||
            n > std::numeric_limits<unsigned>::max()) {
            // A usage error, reported before any worker thread
            // starts and with bench::benchScale's exit status.
            // simlint: allow(direct-output)
            std::fprintf(stderr,
                         "invalid SCUSIM_JOBS='%s': want a whole "
                         "number >= 1\n",
                         s);
            std::exit(2);
        }
        return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

PlanResults
runPlan(const std::vector<PlannedRun> &runs,
        const ExecutorOptions &opts)
{
    std::vector<RunRecord> recs(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        recs[i].run = runs[i];

    // Serve memoized results and collect the indexes left to
    // execute. Within those, equal keys (possible through the
    // raw-run-list overload) execute once and fan out afterwards.
    std::vector<std::size_t> todo;
    std::map<std::string, std::vector<std::size_t>> dup;
    {
        std::lock_guard<std::mutex> lock(memoMutex);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (opts.memoize) {
                auto it = memo().find(runs[i].key);
                if (it != memo().end()) {
                    copyOutcome(recs[i], it->second);
                    continue;
                }
            }
            auto &group = dup[runs[i].key];
            if (group.empty())
                todo.push_back(i);
            group.push_back(i);
        }
    }

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            std::size_t t = next.fetch_add(1);
            if (t >= todo.size())
                break;
            RunRecord &rec = recs[todo[t]];
            RunConfig cfg = rec.run.cfg;
            mergeTrace(cfg, rec.run.label, opts);
            try {
                // Failures inside the run (panics, invariant
                // violations, watchdog trips) throw SimError while
                // the trap is alive instead of aborting the whole
                // matrix.
                ErrorTrapGuard trap;
                rec.result = checkedRun(cfg, rec.run.graph);
                rec.ok = true;
                if (!rec.result.validated)
                    warn("run '%s' failed validation",
                         rec.run.label.c_str());
            } catch (const SimError &e) {
                rec.error = e.what();
                rec.failure = e.kind();
                rec.diagnostics = e.diagnostics();
                warn("run '%s' failed (%s): %s",
                     rec.run.label.c_str(), to_string(e.kind()),
                     e.what());
            } catch (const std::exception &e) {
                rec.error = e.what();
                warn("run '%s' failed: %s", rec.run.label.c_str(),
                     e.what());
            }
        }
    };

    unsigned jobs = executorJobs(opts);
    if (todo.size() < jobs)
        jobs = todo.empty() ? 1
                            : static_cast<unsigned>(todo.size());
    std::vector<std::thread> pool;
    for (unsigned j = 1; j < jobs; ++j)
        pool.emplace_back(worker);
    worker();
    for (auto &th : pool)
        th.join();

    // Fan the executed results out to same-key duplicates and fill
    // the memo.
    {
        std::lock_guard<std::mutex> lock(memoMutex);
        for (std::size_t i : todo) {
            for (std::size_t j : dup[recs[i].run.key]) {
                if (j != i)
                    copyOutcome(recs[j], recs[i]);
            }
            if (opts.memoize)
                memo().emplace(recs[i].run.key, recs[i]);
        }
    }

    return PlanResults(std::move(recs));
}

PlanResults
runPlan(const ExperimentPlan &plan, const ExecutorOptions &opts)
{
    return runPlan(plan.expand(), opts);
}

std::size_t
memoizedRunCount()
{
    std::lock_guard<std::mutex> lock(memoMutex);
    return memo().size();
}

void
clearRunMemo()
{
    std::lock_guard<std::mutex> lock(memoMutex);
    memo().clear();
}

} // namespace scusim::harness
