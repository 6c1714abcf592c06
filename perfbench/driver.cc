/**
 * @file
 * Host-time benchmark driver of the simulator.
 *
 * Runs one workload — a list of cells, each one primitive on one
 * system preset, mode and synthetic dataset — in this single-threaded
 * process and prints what it measured. Each cell of the untraced run
 * is a direct harness::runPrimitive(cfg, g) call on a pre-built graph:
 * the executor, memoization, run cache and dataset store are bypassed.
 *
 * With --trace 0 it reports the end-to-end metrics: host wall and CPU
 * time in units of a fixed reference computation timed between cells
 * (per-cell best over as many passes as fit in --seconds), setup
 * time in seconds (dataset synthesis plus the first System build,
 * median of several set-ups), simulated cycles, throughput and peak
 * RSS.
 *
 * With --trace 1 it alternates untraced passes with traced passes.
 * A traced pass decomposes each cell along the runner step API that
 * run() itself is built on (System constructor, runner constructor +
 * beginRun, every runLevel / nearIteration / farPhase / iterate,
 * serial validation, energy breakdown + stats dump), records a span
 * around each call, and reads the exact modeled counters after each
 * cell. Then three layer probes call the GPU, SCU and memory layers'
 * entry points directly. Every traced cell must reproduce the
 * untraced cell's simulated cycles and stats-dump digest.
 *
 * Every cell validates against its serial reference; every repeated
 * pass must reproduce the first pass's digest. The last stdout line
 * is "RESULT <json>"; run.py turns it into the benchmark's output.
 *
 * Usage:
 *   perfbench --cell PRIM:SYSTEM:MODE:DATASET [--cell ...]
 *             --seed N --scale S --seconds T --trace 0|1
 * e.g. --cell BFS:GTX980:gpu-only:kron
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alg/bfs.hh"
#include "alg/gpu_primitives.hh"
#include "alg/pagerank.hh"
#include "alg/serial.hh"
#include "alg/sssp.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "harness/runner.hh"
#include "harness/system.hh"

using namespace scusim;
using harness::Primitive;
using harness::ScuMode;

namespace
{

// ------------------------------------------------------------------
// Clocks, statistics and the span recorder.

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU seconds (user + system), from getrusage. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** FNV-1a over @p s: the digest of a stats dump. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * In-memory span recorder. Spans are recorded only in traced passes,
 * around the public calls this driver makes into each layer; they
 * never nest, so a span's duration is its self time.
 */
class Spans
{
  public:
    struct Record
    {
        std::string name;
        double t0 = 0;
        double t1 = 0;
        double seconds() const { return t1 - t0; }
    };

    /** RAII span: records [construction, destruction) under @p name. */
    class Scope
    {
      public:
        Scope(Spans &s, const char *n)
            : spans(s), name(n), t0(s.now())
        {
        }
        ~Scope() { spans.recs.push_back({name, t0, spans.now()}); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans;
        const char *name;
        double t0;
    };

    double now() const { return secondsSince(origin); }

    double
    total(const std::string &name) const
    {
        double s = 0;
        for (const Record &r : recs)
            s += r.name == name ? r.seconds() : 0;
        return s;
    }

    double
    covered() const
    {
        double s = 0;
        for (const Record &r : recs)
            s += r.seconds();
        return s;
    }

    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> d;
        for (const Record &r : recs) {
            if (r.name == name)
                d.push_back(r.seconds());
        }
        return d;
    }

  private:
    Clock::time_point origin = Clock::now();
    std::vector<Record> recs;
};

// ------------------------------------------------------------------
// Cells.

struct Cell
{
    Primitive prim = Primitive::Bfs;
    std::string system;
    ScuMode mode = ScuMode::GpuOnly;
    std::string dataset;

    std::string
    label() const
    {
        return harness::to_string(prim) + "/" + system + "/" +
               harness::to_string(mode) + "/" + dataset;
    }
};

bool
parseCell(const std::string &spec, Cell &c)
{
    std::vector<std::string> f;
    std::stringstream ss(spec);
    for (std::string part; std::getline(ss, part, ':');)
        f.push_back(part);
    if (f.size() != 4 || !harness::SystemConfig::isKnown(f[1]))
        return false;
    if (f[0] == "BFS")
        c.prim = Primitive::Bfs;
    else if (f[0] == "SSSP")
        c.prim = Primitive::Sssp;
    else if (f[0] == "PR")
        c.prim = Primitive::Pr;
    else
        return false;
    if (f[2] == "gpu-only")
        c.mode = ScuMode::GpuOnly;
    else if (f[2] == "scu-basic")
        c.mode = ScuMode::ScuBasic;
    else if (f[2] == "scu-enhanced")
        c.mode = ScuMode::ScuEnhanced;
    else
        return false;
    c.system = f[1];
    c.dataset = f[3];
    return true;
}

harness::SystemConfig
systemFor(const Cell &c)
{
    // Same resolution as runPrimitive for a one-device run.
    return harness::SystemConfig::byName(c.system,
                                         c.mode != ScuMode::GpuOnly);
}

/** runPrimitive's source choice: the first max-degree node of the
 *  first 1024. */
NodeId
pickSource(const graph::CsrGraph &g)
{
    NodeId best = 0;
    EdgeId bestDeg = 0;
    const NodeId probe = std::min<NodeId>(g.numNodes(), 1024);
    for (NodeId u = 0; u < probe; ++u) {
        if (g.degree(u) > bestDeg) {
            bestDeg = g.degree(u);
            best = u;
        }
    }
    return best;
}

/** What one execution of a cell produced. */
struct CellRun
{
    bool ok = false;
    std::string error;
    Tick cycles = 0;
    std::uint64_t digest = 0;
    double wall = 0;
    double cpu = 0;
};

/** Untraced: one direct runPrimitive call on the pre-built graph. */
CellRun
runUntraced(const Cell &c, const graph::CsrGraph &g, double scale,
            std::uint64_t seed)
{
    CellRun out;
    harness::RunConfig cfg;
    cfg.systemName = c.system;
    cfg.mode = c.mode;
    cfg.primitive = c.prim;
    cfg.dataset = c.dataset;
    cfg.scale = scale;
    cfg.seed = seed;
    std::ostringstream dump;
    cfg.dumpStatsTo = &dump;
    try {
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        const harness::RunResult r = harness::runPrimitive(cfg, g);
        out.wall = secondsSince(t0);
        out.cpu = cpuSeconds() - cpu0;
        out.cycles = r.totalCycles;
        out.ok = r.validated;
        if (!r.validated)
            out.error = "serial-reference validation failed";
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.digest = fnv1a(dump.str());
    return out;
}

/** Exact modeled counters, summed over the traced cells. */
struct Counters
{
    double launches = 0, warpInstrs = 0, threadInstrs = 0, memTxns = 0;
    double procMemLanes = 0, procMemTxns = 0;
    double compactionCycles = 0, processingCycles = 0;
    double scuOps = 0, scuElements = 0, scuFiltered = 0,
           scuHashTxns = 0, scuBusyCycles = 0;
    double l2Accesses = 0, l2Hits = 0, dramLines = 0;
    double dramBytes = 0, peakBytes = 0;
    double simCycles = 0;

    void
    add(harness::System &sys)
    {
        const gpu::GpuTotals &gt = sys.gpuDevice().totals();
        launches += static_cast<double>(gt.launches);
        warpInstrs += static_cast<double>(gt.compaction.warpInstrs +
                                          gt.processing.warpInstrs);
        threadInstrs += static_cast<double>(
            gt.compaction.threadInstrs + gt.processing.threadInstrs);
        memTxns += static_cast<double>(gt.compaction.memTransactions +
                                       gt.processing.memTransactions);
        procMemLanes += static_cast<double>(gt.processing.memLanes);
        procMemTxns +=
            static_cast<double>(gt.processing.memTransactions);
        compactionCycles += static_cast<double>(gt.compactionCycles);
        processingCycles += static_cast<double>(gt.processingCycles);
        if (sys.hasScu()) {
            const scu::ScuTotals &st = sys.scuDevice().totals();
            scuOps += static_cast<double>(st.ops);
            scuElements += static_cast<double>(st.elements);
            scuFiltered += static_cast<double>(st.filtered);
            scuHashTxns +=
                static_cast<double>(st.hashReadTxns + st.hashWriteTxns);
            scuBusyCycles += static_cast<double>(st.busyCycles);
        }
        mem::MemSystem &m = sys.memory();
        const double acc = m.l2().numAccesses();
        l2Accesses += acc;
        l2Hits += m.l2().hitRate() * acc;
        dramLines += m.dram().numReads() + m.dram().numWrites();
        dramBytes += m.dramBytes();
        const Tick now = sys.simulation().now();
        peakBytes += m.peakBandwidth() * m.clock().toSeconds(now);
        simCycles += static_cast<double>(now);
    }
};

/**
 * Traced: the same cell decomposed along the runner step API, on a
 * one-fragment partition (whose runner can hand back its results and
 * is byte-identical to the plain path), with a span around each call.
 */
CellRun
runTraced(const Cell &c, const graph::CsrGraph &g,
          const graph::GraphPartition &part, Spans &spans,
          Counters &counters)
{
    CellRun out;
    const graph::CsrGraph &fg = part.fragment(0).csr;
    const auto t0 = Clock::now();
    try {
        std::unique_ptr<harness::System> sysPtr;
        {
            Spans::Scope s(spans, "harness.build");
            sysPtr = std::make_unique<harness::System>(systemFor(c));
        }
        harness::System &sys = *sysPtr;

        alg::AlgOptions opt;
        opt.mode = c.mode;
        opt.source = pickSource(g);
        alg::AlgMetrics m;
        std::vector<std::uint32_t> dist;
        std::vector<float> ranks;

        switch (c.prim) {
          case Primitive::Bfs: {
            std::unique_ptr<alg::BfsRunner> r;
            {
                Spans::Scope s(spans, "alg.init");
                r = std::make_unique<alg::BfsRunner>(sys, 0, fg, &part);
                r->beginRun(opt);
            }
            std::uint32_t level = 0;
            while (!r->frontierEmpty() && level < opt.maxIterations) {
                ++level;
                ++m.iterations;
                Spans::Scope s(spans, "alg.step");
                r->runLevel(level, m, nullptr);
            }
            dist.assign(g.numNodes(), infDist);
            r->collect(dist);
            break;
          }
          case Primitive::Sssp: {
            std::unique_ptr<alg::SsspRunner> r;
            {
                Spans::Scope s(spans, "alg.init");
                r = std::make_unique<alg::SsspRunner>(sys, 0, fg,
                                                      &part);
                r->beginRun(opt);
            }
            unsigned iters = 0;
            while ((!r->nearEmpty() || !r->farEmpty()) &&
                   iters < opt.maxIterations) {
                while (!r->nearEmpty() && iters < opt.maxIterations) {
                    ++iters;
                    ++m.iterations;
                    Spans::Scope s(spans, "alg.step");
                    r->nearIteration(m, nullptr);
                }
                if (r->nearEmpty() && r->farEmpty())
                    break;
                r->advanceThreshold();
                if (r->farEmpty())
                    continue;
                Spans::Scope s(spans, "alg.step");
                r->farPhase(m);
            }
            dist.assign(g.numNodes(), infDist);
            r->collect(dist);
            break;
          }
          case Primitive::Pr: {
            std::unique_ptr<alg::PageRankRunner> r;
            {
                Spans::Scope s(spans, "alg.init");
                r = std::make_unique<alg::PageRankRunner>(sys, 0, fg,
                                                          &part);
                r->beginRun(opt);
            }
            for (unsigned it = 0; it < opt.prMaxIterations; ++it) {
                ++m.iterations;
                float maxDelta = 0;
                {
                    Spans::Scope s(spans, "alg.step");
                    r->iterate(m, nullptr);
                    maxDelta = r->dampen();
                }
                if (maxDelta < static_cast<float>(opt.prEpsilon))
                    break;
            }
            ranks.assign(g.numNodes(), 0.0f);
            r->collect(ranks);
            break;
          }
        }

        {
            Spans::Scope s(spans, "alg.validate");
            switch (c.prim) {
              case Primitive::Bfs:
                out.ok = alg::serialBfs(g, opt.source) == dist;
                break;
              case Primitive::Sssp:
                out.ok = alg::serialDijkstra(g, opt.source) == dist;
                break;
              case Primitive::Pr: {
                // runPrimitive's tolerance: 1% relative per node.
                const auto want = alg::serialPageRank(
                    g, 0.15, opt.prEpsilon, opt.prMaxIterations);
                out.ok = true;
                for (std::size_t u = 0; u < ranks.size(); ++u) {
                    const double d = std::max(1.0, std::fabs(want[u]));
                    if (std::fabs(want[u] - ranks[u]) / d > 1e-2)
                        out.ok = false;
                }
                break;
              }
            }
            if (!out.ok)
                out.error = "serial-reference validation failed";
        }

        std::ostringstream dump;
        {
            Spans::Scope s(spans, "harness.report");
            (void)sys.energyModel().breakdown(
                sys.gpuActivity(), sys.scuActivity(),
                sys.elapsedSeconds(), sys.hasScu());
            sys.statsRoot().dumpAll(dump);
        }
        out.wall = secondsSince(t0);
        out.cycles = sys.simulation().now();
        out.digest = fnv1a(dump.str());
        counters.add(sys);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
        out.wall = secondsSince(t0);
    }
    return out;
}

// ------------------------------------------------------------------
// Layer probes: each layer's public entry point, called directly on
// inputs from the workload's first graph and system preset. Each
// returns host nanoseconds per unit of work, median over repetitions
// (a fresh System per repetition; only the call is timed).

/** Edges (and threads) a probe covers: a prefix of the graph. */
constexpr EdgeId probeEdges = EdgeId{1} << 19;

template <typename F>
double
medianProbe(F &&once, double minSeconds)
{
    std::vector<double> ns;
    const auto t0 = Clock::now();
    while (ns.size() < 3 ||
           (secondsSince(t0) < minSeconds && ns.size() < 50))
        ns.push_back(once());
    return median(ns);
}

double
probeGpu(const Cell &c, const graph::CsrGraph &g, double minSeconds)
{
    const auto edges = g.edgeArray();
    const EdgeId e = std::min<EdgeId>(edges.size(), probeEdges);
    return medianProbe(
        [&] {
            harness::System sys(systemFor(c));
            alg::Elems cols(sys.addressSpace(), "probe_cols", e);
            alg::Elems recs(sys.addressSpace(), "probe_recs",
                            g.numNodes());
            const auto t0 = Clock::now();
            // One thread per edge: load its column index, then
            // gather the destination's node record.
            const gpu::KernelStats ks = alg::gpuStreamKernel(
                sys, "probe_gather", gpu::Phase::Processing, e,
                [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
                    rec.load(cols.addrOf(t), 4);
                    rec.compute(1);
                    rec.load(recs.addrOf(edges[t]), 4);
                });
            const double s = secondsSince(t0);
            return s * 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, ks.warpInstrs));
        },
        minSeconds);
}

double
probeScu(const Cell &c, const graph::CsrGraph &g, double minSeconds)
{
    // The whole-graph frontier, cut at the first node whose edges
    // would pass probeEdges.
    NodeId n = 0;
    while (n < g.numNodes() && g.edgeEnd(n) <= probeEdges)
        ++n;
    n = std::max<NodeId>(n, 1);
    const EdgeId e = g.edgeEnd(n - 1);
    const auto edges = g.edgeArray();
    return medianProbe(
        [&] {
            harness::System sys(
                harness::SystemConfig::byName(c.system, true));
            mem::AddressSpace &as = sys.addressSpace();
            scu::Scu::Elems data(as, "probe_edges", e);
            scu::Scu::Elems idx(as, "probe_index", n);
            scu::Scu::Elems cnt(as, "probe_count", n);
            scu::Scu::Elems out(as, "probe_out", e);
            for (EdgeId i = 0; i < e; ++i)
                data[i] = edges[i];
            for (NodeId u = 0; u < n; ++u) {
                idx[u] = static_cast<std::uint32_t>(g.edgeBegin(u));
                cnt[u] = static_cast<std::uint32_t>(g.degree(u));
            }
            scu::Scu &unit = sys.scuDevice();
            const auto before = unit.totals().elements;
            const auto t0 = Clock::now();
            // Step 1: Unique filtering plus grouping metadata.
            std::vector<std::uint8_t> keep;
            std::vector<std::uint32_t> order;
            scu::OpOptions s1;
            s1.writeOutput = false;
            s1.filterMode = scu::FilterMode::Unique;
            s1.keepOut = &keep;
            s1.makeGroups = true;
            s1.orderOut = &order;
            std::size_t ignore = 0;
            unit.accessExpansionCompaction(data, idx, cnt, n, nullptr,
                                           out, ignore, s1);
            // Step 2: the filtered, grouped expansion.
            scu::OpOptions s2;
            s2.keep = &keep;
            s2.order = &order;
            std::size_t outN = 0;
            unit.accessExpansionCompaction(data, idx, cnt, n, nullptr,
                                           out, outN, s2);
            const double s = secondsSince(t0);
            const auto elems = unit.totals().elements - before;
            return s * 1e9 / static_cast<double>(
                                 std::max<std::uint64_t>(1, elems));
        },
        minSeconds);
}

double
probeMem(const Cell &c, const graph::CsrGraph &g, double minSeconds)
{
    const auto edges = g.edgeArray();
    const EdgeId e = std::min<EdgeId>(edges.size(), probeEdges);
    return medianProbe(
        [&] {
            harness::System sys(systemFor(c));
            alg::Elems recs(sys.addressSpace(), "probe_recs",
                            g.numNodes());
            mem::MemSystem &m = sys.memory();
            const auto t0 = Clock::now();
            // The column-index stream mapped to node-record
            // addresses, one access issued per cycle.
            Tick tick = 0;
            for (EdgeId i = 0; i < e; ++i)
                m.access(tick++, recs.addrOf(edges[i]),
                         mem::AccessKind::Read, 4);
            const double s = secondsSince(t0);
            return s * 1e9 / static_cast<double>(std::max<EdgeId>(1, e));
        },
        minSeconds);
}

// ------------------------------------------------------------------
// Host-speed reference.

/**
 * A fixed piece of host work, timed between cells: dependent loads
 * around a 16 KiB random cycle plus integer hashing. The benchmark
 * runs on shared hosts whose core speed drifts by up to 2x over
 * minutes; a cell's time divided by the reference's time next to it
 * cancels that drift, so runs made minutes apart compare. The cycle
 * stays in the L1 cache: over a 4 MiB cycle the reference's own time
 * varied by 35% between processes, with the physical pages each got.
 */
class HostReference
{
  public:
    HostReference() : next(std::size_t{1} << 12)
    {
        // Sattolo's shuffle: one cycle through every slot.
        std::vector<std::uint32_t> a(next.size());
        for (std::uint32_t k = 0; k < a.size(); ++k)
            a[k] = k;
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (std::size_t k = a.size() - 1; k > 0; --k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(a[k], a[x % k]);
        }
        for (std::size_t k = 0; k < a.size(); ++k)
            next[k] = a[k];
    }

    /** Seconds one unit of reference work takes now: the median of
     *  three timings, so one preempted timing does not count. */
    double
    measure()
    {
        std::vector<double> s;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = Clock::now();
            std::uint32_t p = 0;
            std::uint64_t h = 0;
            for (int k = 0; k < 2000000; ++k) {
                p = next[p];
                h = h * 31 + p;
                if (h & 1)
                    h ^= h >> 7;
            }
            sink = h;
            s.push_back(secondsSince(t0));
        }
        return median(s);
    }

  private:
    std::vector<std::uint32_t> next;
    volatile std::uint64_t sink = 0;
};

// ------------------------------------------------------------------
// Environment pinning.

/** Knobs that change what runs, with the value each must resolve to
 *  ("" = unset). run.py sets exactly these. */
const std::vector<std::pair<const char *, const char *>> pinnedEnv = {
    {"SCUSIM_SCHEDULER", "event"}, {"SCUSIM_SM_PATH", "soa"},
    {"SCUSIM_JOBS", "1"},          {"SCUSIM_STORE_DIR", ""},
    {"SCUSIM_CACHE_DIR", ""},      {"SCUSIM_PROFILE", ""},
    {"SCUSIM_TRACE_MASK", ""},
};

bool
optimisedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            o += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            o += ch;
    }
    return o + "\"";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --cell PRIM:SYSTEM:MODE:DATASET [...] "
                 "--seed N --scale S --seconds T --trace 0|1\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<Cell> cells;
    std::uint64_t seed = 1;
    double scale = 0.05;
    double seconds = 10;
    int traced = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string v = argv[++i];
        if (a == "--cell") {
            Cell c;
            if (!parseCell(v, c)) {
                std::fprintf(stderr, "bad cell '%s'\n", v.c_str());
                return 2;
            }
            cells.push_back(c);
        } else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--scale") {
            scale = std::atof(v.c_str());
        } else if (a == "--seconds") {
            seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            traced = std::atoi(v.c_str());
        } else {
            return usage(argv[0]);
        }
    }
    if (cells.empty() || scale <= 0 || seconds <= 0 ||
        (traced != 0 && traced != 1))
        return usage(argv[0]);

    // --- Pin the environment and the build. -----------------------
    std::string envJson = "{";
    bool envOk = true;
    for (const auto &[name, want] : pinnedEnv) {
        const char *got = std::getenv(name);
        const std::string v = got ? got : "";
        if (v != want) {
            std::fprintf(stderr, "refusing to run: %s='%s' (want '%s')\n",
                         name, v.c_str(), want);
            envOk = false;
        }
        envJson += std::string(envJson.size() > 1 ? ", " : "") +
                   jsonStr(name) + ": " + jsonStr(v);
    }
    envJson += "}";
    if (!optimisedBuild()) {
        std::fprintf(stderr,
                     "refusing to run: unoptimised build "
                     "(need __OPTIMIZE__ and NDEBUG)\n");
        envOk = false;
    }
    if (!envOk)
        return 2;

    const auto runStart = Clock::now();
    std::printf("perfbench: %zu cells, seed %llu, scale %g, %s, "
                "budget %g s\n",
                cells.size(), static_cast<unsigned long long>(seed),
                scale, traced ? "traced" : "untraced", seconds);
    std::printf("env: %s optimised=1\n", envJson.c_str());

    // --- Set-up: datasets + first System build, several times. ----
    std::vector<std::string> datasets;
    for (const Cell &c : cells) {
        if (std::find(datasets.begin(), datasets.end(), c.dataset) ==
            datasets.end())
            datasets.push_back(c.dataset);
    }
    std::map<std::string, graph::CsrGraph> graphs;
    // At least three set-ups and about two seconds of them, so the
    // median steadies when the host slows for part of the run.
    std::vector<double> setupS, genS;
    const auto setupStart = Clock::now();
    while (setupS.size() < 3 ||
           (secondsSince(setupStart) < 2.0 && setupS.size() < 25)) {
        graphs.clear();
        const auto t0 = Clock::now();
        for (const std::string &d : datasets)
            graphs.emplace(d, graph::makeDataset(d, scale, seed));
        genS.push_back(secondsSince(t0));
        { harness::System first(systemFor(cells[0])); }
        setupS.push_back(secondsSince(t0));
    }
    for (const std::string &d : datasets) {
        const graph::CsrGraph &g = graphs.at(d);
        std::printf("dataset %s: %u nodes, %llu edges\n", d.c_str(),
                    g.numNodes(),
                    static_cast<unsigned long long>(g.numEdges()));
    }

    // --- Passes. --------------------------------------------------
    const std::size_t nc = cells.size();
    std::vector<std::vector<double>> cellWall(nc), cellCpu(nc),
        cellTraced(nc), cellWallRef(nc), cellCpuRef(nc);
    HostReference reference;
    std::vector<double> refS;
    std::vector<CellRun> firstRun(nc);
    std::uint64_t attempted = 0, failed = 0;
    auto fail = [&](const Cell &c, const std::string &why) {
        ++failed;
        std::printf("FAIL %s: %s\n", c.label().c_str(), why.c_str());
    };

    std::map<std::string, graph::GraphPartition> parts;
    std::vector<double> tracedWall;
    std::vector<Spans> tracedSpans;
    Counters counters;
    if (traced) {
        for (const std::string &d : datasets)
            parts.emplace(d, graph::GraphPartition::build(graphs.at(d),
                                                          1));
    }

    const auto passStart = Clock::now();
    unsigned passes = 0;
    for (unsigned pass = 0;; ++pass) {
        const auto p0 = Clock::now();
        double passWall = 0;
        double refBefore = reference.measure();
        for (std::size_t i = 0; i < nc; ++i) {
            const Cell &c = cells[i];
            const CellRun r =
                runUntraced(c, graphs.at(c.dataset), scale, seed);
            const double refAfter = reference.measure();
            // The faster neighbour: a reference timing slowed by a
            // hiccup would make the cell look fast, and the best pass
            // below would pick exactly that one.
            const double ref = std::min(refBefore, refAfter);
            cellWallRef[i].push_back(r.wall / ref);
            cellCpuRef[i].push_back(r.cpu / ref);
            refS.push_back(refAfter);
            refBefore = refAfter;
            ++attempted;
            if (!r.ok)
                fail(c, r.error);
            if (pass == 0) {
                firstRun[i] = r;
            } else if (r.cycles != firstRun[i].cycles ||
                       r.digest != firstRun[i].digest) {
                fail(c, "repeated pass diverged from the first");
            }
            cellWall[i].push_back(r.wall);
            cellCpu[i].push_back(r.cpu);
            passWall += r.wall;
        }
        std::printf("pass %u: untraced wall %.4f s, reference %.3f ms\n",
                    pass, passWall, refBefore * 1e3);

        if (traced) {
            Spans spans;
            Counters cnt;
            double wall = 0;
            for (std::size_t i = 0; i < nc; ++i) {
                const Cell &c = cells[i];
                const CellRun r =
                    runTraced(c, graphs.at(c.dataset),
                              parts.at(c.dataset), spans, cnt);
                ++attempted;
                wall += r.wall;
                cellTraced[i].push_back(r.wall);
                if (!r.ok) {
                    fail(c, "traced: " + r.error);
                } else if (r.cycles != firstRun[i].cycles ||
                           r.digest != firstRun[i].digest) {
                    fail(c, "traced run diverged: cycles " +
                                std::to_string(r.cycles) + " vs " +
                                std::to_string(firstRun[i].cycles) +
                                ", digest " + hex(r.digest) + " vs " +
                                hex(firstRun[i].digest));
                }
                if (pass == 0) {
                    std::printf("cell %s: sim_cycles %llu, untraced "
                                "digest %s, traced digest %s\n",
                                c.label().c_str(),
                                static_cast<unsigned long long>(
                                    firstRun[i].cycles),
                                hex(firstRun[i].digest).c_str(),
                                hex(r.digest).c_str());
                }
            }
            tracedWall.push_back(wall);
            tracedSpans.push_back(std::move(spans));
            if (pass == 0)
                counters = cnt;
        } else if (pass == 0) {
            for (std::size_t i = 0; i < nc; ++i) {
                std::printf("cell %s: sim_cycles %llu, digest %s\n",
                            cells[i].label().c_str(),
                            static_cast<unsigned long long>(
                                firstRun[i].cycles),
                            hex(firstRun[i].digest).c_str());
            }
        }

        ++passes;
        // Stop before a pass would overrun the budget, which leaves
        // time for the probes in a traced run; a traced run makes at
        // least two passes so its overhead is a best of two.
        const double lastPass = secondsSince(p0);
        const double budget = traced ? 0.8 * seconds : seconds;
        if (passes >= (traced ? 2u : 1u) &&
            secondsSince(passStart) + lastPass > budget)
            break;
    }

    // --- Metrics. -------------------------------------------------
    // Sum over cells of each cell's best pass: the reference cancels
    // drift in core speed, and contention for the shared cache and
    // memory, which it does not see, only ever slows a pass down.
    auto bestSum = [](const std::vector<std::vector<double>> &perCell) {
        double s = 0;
        for (const std::vector<double> &v : perCell)
            s += v.empty() ? 0 : *std::min_element(v.begin(), v.end());
        return s;
    };
    const double wallS = bestSum(cellWall), cpuS = bestSum(cellCpu);
    const double wallRef = bestSum(cellWallRef);
    double simCycles = 0;
    for (const CellRun &r : firstRun)
        simCycles += static_cast<double>(r.cycles);
    std::printf("untraced best passes: wall %.4f s, cpu %.4f s; "
                "reference %.4f ms\n",
                wallS, cpuS, median(refS) * 1e3);
    std::vector<Metric> metrics;
    auto add = [&](const std::string &n, double v, const char *unit) {
        metrics.push_back({n, v, unit});
    };

    if (!traced) {
        add("wall_ref", wallRef, "ref");
        add("cpu_ref", bestSum(cellCpuRef), "ref");
        add("setup_s", median(setupS), "s");
        add("sim_kcycles_per_ref",
            wallRef > 0 ? simCycles / wallRef / 1e3 : 0, "kcycles/ref");
        add("peak_rss_mb", peakRssMb(), "MB");
        add("sim_cycles", simCycles, "cycles");
    } else {
        const double probeBudget =
            std::max(0.05, (seconds - secondsSince(runStart)) / 6.0);
        const Cell &c0 = cells[0];
        const graph::CsrGraph &g0 = graphs.at(c0.dataset);
        const double gpuProbe = probeGpu(c0, g0, probeBudget);
        const double scuProbe = probeScu(c0, g0, probeBudget);
        const double memProbe = probeMem(c0, g0, probeBudget);

        auto spanMedian = [&](const char *name) {
            std::vector<double> v;
            for (const Spans &s : tracedSpans)
                v.push_back(s.total(name));
            return median(v);
        };
        std::vector<double> p50, pmax, other;
        for (std::size_t k = 0; k < tracedSpans.size(); ++k) {
            const std::vector<double> d =
                tracedSpans[k].durations("alg.step");
            p50.push_back(median(d));
            pmax.push_back(d.empty() ? 0
                                     : *std::max_element(d.begin(),
                                                         d.end()));
            other.push_back(tracedWall[k] - tracedSpans[k].covered());
        }
        const double stepS = spanMedian("alg.step");
        const Counters &k = counters;
        const double tw = bestSum(cellTraced);

        add("graph.gen_s", median(genS), "s");
        add("harness.build_s", spanMedian("harness.build"), "s");
        add("alg.init_s", spanMedian("alg.init"), "s");
        add("alg.step_s", stepS, "s");
        add("alg.steps",
            static_cast<double>(
                tracedSpans.front().durations("alg.step").size()),
            "count");
        add("alg.step_p50_us", median(p50) * 1e6, "us");
        add("alg.step_max_us", median(pmax) * 1e6, "us");
        add("alg.validate_s", spanMedian("alg.validate"), "s");
        add("harness.report_s", spanMedian("harness.report"), "s");
        add("harness.other_s", median(other), "s");
        add("trace.wall_s", tw, "s");
        add("trace.untraced_wall_s", wallS, "s");
        add("trace.overhead", wallS > 0 ? tw / wallS - 1 : 0, "frac");
        add("gpu.launches", k.launches, "count");
        add("gpu.warp_instrs", k.warpInstrs, "count");
        add("gpu.thread_instrs", k.threadInstrs, "count");
        add("gpu.mem_txns", k.memTxns, "count");
        add("gpu.coalescing_eff",
            k.procMemTxns > 0 ? k.procMemLanes / (32 * k.procMemTxns)
                              : 0,
            "frac");
        add("gpu.compaction_cycles", k.compactionCycles, "cycles");
        add("gpu.processing_cycles", k.processingCycles, "cycles");
        add("scu.ops", k.scuOps, "count");
        add("scu.elements", k.scuElements, "count");
        add("scu.filtered", k.scuFiltered, "count");
        add("scu.hash_txns", k.scuHashTxns, "count");
        add("scu.busy_cycles", k.scuBusyCycles, "cycles");
        add("mem.l2_accesses", k.l2Accesses, "count");
        add("mem.l2_hit_rate",
            k.l2Accesses > 0 ? k.l2Hits / k.l2Accesses : 0, "frac");
        add("mem.dram_lines", k.dramLines, "count");
        add("mem.bw_util", k.peakBytes > 0 ? k.dramBytes / k.peakBytes : 0,
            "frac");
        add("sim.cycles", k.simCycles, "cycles");
        add("gpu.probe_ns_per_warp_instr", gpuProbe, "ns");
        add("scu.probe_ns_per_elem", scuProbe, "ns");
        add("mem.probe_ns_per_access", memProbe, "ns");
        add("host_ns_per_warp_instr",
            k.warpInstrs > 0 ? stepS * 1e9 / k.warpInstrs : 0, "ns");
        add("host_ns_per_sim_cycle",
            k.simCycles > 0 ? stepS * 1e9 / k.simCycles : 0, "ns");
        add("host.ref_ms", median(refS) * 1e3, "ms");
    }

    const double failFrac =
        attempted ? static_cast<double>(failed) /
                        static_cast<double>(attempted)
                  : 1.0;
    std::printf("passes: %u untraced, %zu traced; fail_frac %g "
                "(%llu of %llu)\n",
                passes, tracedWall.size(), failFrac,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"fail_frac\": " + jsonNum(failFrac);
    json += ", \"env\": " + envJson + ", \"optimised\": true";
    json += ", \"digests\": {";
    for (std::size_t i = 0; i < nc; ++i) {
        json += (i ? ", " : "") + jsonStr(cells[i].label()) + ": " +
                jsonStr(hex(firstRun[i].digest));
    }
    json += "}, \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", " : "") + jsonStr(metrics[i].name) +
                ": {\"value\": " + jsonNum(metrics[i].value) +
                ", \"unit\": " + jsonStr(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("RESULT %s\n", json.c_str());
    return failed == 0 ? 0 : 1;
}
