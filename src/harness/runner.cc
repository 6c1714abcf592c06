#include "harness/runner.hh"

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include <fstream>

#include "alg/bfs.hh"
#include "alg/pagerank.hh"
#include "alg/serial.hh"
#include "alg/sssp.hh"
#include "common/logging.hh"
#include "graph/datasets.hh"
#include "stats/timeseries.hh"
#include "trace/chrome_export.hh"

namespace scusim::harness
{

std::string
to_string(Primitive p)
{
    switch (p) {
      case Primitive::Bfs:
        return "BFS";
      case Primitive::Sssp:
        return "SSSP";
      case Primitive::Pr:
        return "PR";
    }
    return "?";
}

std::string
keyNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const graph::CsrGraph &
cachedDataset(const std::string &name, double scale,
              std::uint64_t seed)
{
    // Executor workers hit this concurrently. Map nodes are stable,
    // so the map mutex only guards lookup/insert; the per-entry
    // once_flag lets different datasets synthesize in parallel while
    // same-key callers block until the graph is ready.
    struct Entry
    {
        std::once_flag once;
        graph::CsrGraph g;
    };
    static std::mutex m;
    static std::map<std::string, Entry> cache;
    std::string key =
        name + "@" + keyNum(scale) + "#" + std::to_string(seed);
    Entry *e;
    {
        std::lock_guard<std::mutex> lock(m);
        e = &cache[key];
    }
    std::call_once(e->once,
                   [&] { e->g = graph::makeDataset(name, scale, seed); });
    return e->g;
}

namespace
{

bool
validateBfs(const graph::CsrGraph &g, NodeId src,
            const std::vector<std::uint32_t> &got)
{
    auto want = alg::serialBfs(g, src);
    return want == got;
}

bool
validateSssp(const graph::CsrGraph &g, NodeId src,
             const std::vector<std::uint32_t> &got)
{
    auto want = alg::serialDijkstra(g, src);
    return want == got;
}

bool
validatePr(const graph::CsrGraph &g, const alg::AlgOptions &opt,
           const std::vector<float> &got)
{
    auto want = alg::serialPageRank(g, 0.15, opt.prEpsilon,
                                    opt.prMaxIterations);
    for (std::size_t u = 0; u < got.size(); ++u) {
        double denom = std::max(1.0, std::fabs(want[u]));
        if (std::fabs(want[u] - got[u]) / denom > 1e-2)
            return false;
    }
    return true;
}

/** Pick a well-connected source: the first max-degree-ish node. */
NodeId
pickSource(const graph::CsrGraph &g)
{
    NodeId best = 0;
    EdgeId best_deg = 0;
    const NodeId probe =
        std::min<NodeId>(g.numNodes(), 1024);
    for (NodeId u = 0; u < probe; ++u) {
        if (g.degree(u) > best_deg) {
            best_deg = g.degree(u);
            best = u;
        }
    }
    return best;
}

} // namespace

RunResult
runPrimitive(const RunConfig &cfg, const graph::CsrGraph &g)
{
    SystemConfig sc = SystemConfig::byName(
        cfg.systemName, cfg.mode != ScuMode::GpuOnly);
    if (cfg.scuOverride)
        sc.scu = *cfg.scuOverride;
    System sys(sc);

    // Observability. The sink lives in this run's Simulation; the
    // trace-driven timeseries live in a standalone group that never
    // joins sys.statsRoot(), so the dumped stats tree stays
    // byte-identical whether or not tracing is on.
    std::unique_ptr<stats::StatGroup> tsRoot;
    std::vector<std::unique_ptr<stats::Timeseries>> series;
    if (cfg.trace.enabled) {
        sys.simulation().installTraceSink(
            std::make_unique<trace::TraceSink>(cfg.trace));
        sys.attachTrace();
    }
    if (cfg.trace.enabled && cfg.trace.timeseriesPeriod) {
        tsRoot = std::make_unique<stats::StatGroup>("timeseries");
        System *sp = &sys;
        auto addSeries = [&](std::string name, std::string desc,
                             std::function<double()> src,
                             stats::Timeseries::Mode mode) {
            series.push_back(std::make_unique<stats::Timeseries>(
                tsRoot.get(), std::move(name), std::move(desc),
                cfg.trace.timeseriesPeriod, std::move(src), mode));
            sys.simulation().addTimeseries(series.back().get());
        };
        addSeries(
            "filtered_nodes",
            "duplicate nodes filtered by the SCU so far",
            [sp] {
                return sp->hasScu()
                           ? static_cast<double>(
                                 sp->scuDevice().totals().filtered)
                           : 0.0;
            },
            stats::Timeseries::Mode::Cumulative);
        addSeries(
            "coalesced_accesses",
            "memory transactions reaching the L2 after coalescing",
            [sp] {
                return static_cast<double>(
                    sp->memory().l2().numAccesses());
            },
            stats::Timeseries::Mode::Cumulative);
        addSeries(
            "dram_bytes",
            "DRAM bytes moved within each window",
            [sp] { return sp->memory().dramBytes(); },
            stats::Timeseries::Mode::Delta);
    }

    if (cfg.guards.tickBudget || cfg.guards.stallWindow) {
        sys.simulation().setWatchdog(
            {cfg.guards.tickBudget, cfg.guards.stallWindow});
    }

    alg::AlgOptions opt = cfg.alg;
    opt.mode = cfg.mode;
    if (opt.source == 0)
        opt.source = pickSource(g);

    RunResult r;
    switch (cfg.primitive) {
      case Primitive::Bfs: {
        const alg::BfsResult out = alg::BfsRunner(sys, g).run(opt);
        r.algMetrics = out.metrics;
        r.validated = validateBfs(g, opt.source, out.dist);
        break;
      }
      case Primitive::Sssp: {
        const alg::SsspResult out = alg::SsspRunner(sys, g).run(opt);
        r.algMetrics = out.metrics;
        r.validated = validateSssp(g, opt.source, out.dist);
        break;
      }
      case Primitive::Pr: {
        const alg::PrResult out = alg::PageRankRunner(sys, g).run(opt);
        r.algMetrics = out.metrics;
        r.validated = validatePr(g, opt, out.ranks);
        break;
      }
    }

    r.totalCycles = sys.simulation().now();
    r.seconds = sys.elapsedSeconds();

    const auto gpu_act = sys.gpuActivity();
    const auto &scu_act = sys.scuActivity();
    r.energy = sys.energyModel().breakdown(
        gpu_act, scu_act, r.seconds, sys.hasScu());

    const auto &gt = sys.gpuDevice().totals();
    r.gpuCompactionCycles = gt.compactionCycles;
    r.gpuProcessingCycles = gt.processingCycles;
    r.gpuThreadInstrs = static_cast<double>(
        gt.compaction.threadInstrs + gt.processing.threadInstrs);
    r.coalescingEfficiency = gt.processing.coalescingEfficiency();
    r.txnsPerMemInstr = gt.processing.txnsPerMemInstr();
    r.bwUtilization = sys.memory().bandwidthUtilization(r.totalCycles);
    r.l2HitRate = sys.memory().l2().hitRate();
    r.dramLines = sys.memory().dram().numReads() +
                  sys.memory().dram().numWrites();
    if (sys.hasScu())
        r.scuBusyCycles = sys.scuDevice().totals().busyCycles;

    if (cfg.dumpStatsTo)
        sys.statsRoot().dumpAll(*cfg.dumpStatsTo);

    if (const trace::TraceSink *sink = sys.simulation().traceSink()) {
        // Flush any window boundary the loop has not crossed yet,
        // then write the run's artifacts.
        for (auto &ts : series)
            ts->sampleUpTo(sys.simulation().now());
        if (!cfg.trace.exportPath.empty())
            trace::writeChromeTrace(cfg.trace.exportPath, *sink);
        if (!cfg.trace.timeseriesPath.empty() && !series.empty()) {
            std::ofstream os(cfg.trace.timeseriesPath);
            if (!os) {
                warn("cannot write timeseries CSV '%s'",
                     cfg.trace.timeseriesPath.c_str());
            } else {
                std::vector<const stats::Timeseries *> ptrs;
                ptrs.reserve(series.size());
                for (const auto &ts : series)
                    ptrs.push_back(ts.get());
                stats::writeTimeseriesCsv(os, ptrs);
            }
        }
    }

    return r;
}

RunResult
runPrimitive(const RunConfig &cfg)
{
    return runPrimitive(
        cfg, cachedDataset(cfg.dataset, cfg.scale, cfg.seed));
}

} // namespace scusim::harness
