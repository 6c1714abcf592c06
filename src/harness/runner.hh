/**
 * @file
 * Experiment runner: builds a system, runs one graph primitive in
 * one execution mode, validates the functional result against the
 * serial reference and extracts every metric the paper's figures
 * report.
 */

#ifndef SCUSIM_HARNESS_RUNNER_HH
#define SCUSIM_HARNESS_RUNNER_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "alg/options.hh"
#include "energy/energy_model.hh"
#include "graph/csr.hh"
#include "harness/system.hh"
#include "trace/trace.hh"

namespace scusim::harness
{

/** The three graph primitives of the evaluation. */
enum class Primitive { Bfs, Sssp, Pr };

std::string to_string(Primitive p);

/**
 * Per-run watchdog budgets, enforced by the simulation (Runaway /
 * Deadlock); zero disables the respective guard.
 */
struct RunGuards
{
    Tick tickBudget = 0;  ///< max absolute tick before Runaway
    Tick stallWindow = 0; ///< no-progress ticks before Deadlock
};

/** Everything needed to reproduce one run. */
struct RunConfig
{
    std::string systemName = "GTX980"; ///< "GTX980" or "TX1"
    ScuMode mode = ScuMode::GpuOnly;
    Primitive primitive = Primitive::Bfs;
    std::string dataset = "cond"; ///< Table 5 dataset name
    double scale = 0.25;          ///< dataset scale factor
    std::uint64_t seed = 1;
    alg::AlgOptions alg;
    /** Replace the preset SCU configuration (ablation studies). */
    std::optional<scu::ScuParams> scuOverride;
    /** Dump the full component statistics tree after the run. */
    std::ostream *dumpStatsTo = nullptr;
    /** Watchdog budgets for this run. */
    RunGuards guards = {};
    /**
     * Observability configuration for this run (trace ring buffers,
     * Chrome JSON export, stat timeseries). Tracing never changes
     * what a run computes, so it is deliberately NOT part of the
     * run's memoization key (runKey): a memoized result can be
     * served without regenerating trace artifacts.
     */
    trace::TraceConfig trace = {};
};

/** Metrics of one run (the raw material of Figures 1 and 9-13). */
struct RunResult
{
    Tick totalCycles = 0;
    double seconds = 0;

    energy::EnergyBreakdown energy;

    Tick gpuCompactionCycles = 0; ///< Figure 1 numerator
    Tick gpuProcessingCycles = 0;
    Tick scuBusyCycles = 0;

    double gpuThreadInstrs = 0;   ///< filtering-reduction metric
    double coalescingEfficiency = 0; ///< processing kernels, Fig. 12
    double txnsPerMemInstr = 0;
    double bwUtilization = 0;     ///< Figure 13
    double l2HitRate = 0;
    double dramLines = 0;         ///< DRAM line transfers

    alg::AlgMetrics algMetrics;
    bool validated = false;

    /** Fraction of GPU busy time spent in stream compaction. */
    double
    compactionShare() const
    {
        double total = static_cast<double>(gpuCompactionCycles +
                                           gpuProcessingCycles);
        return total > 0 ? gpuCompactionCycles / total : 0;
    }
};

/**
 * Exact, locale-independent rendering of @p v ("%.17g") for cache
 * keys: two doubles render alike only if they are equal.
 */
std::string keyNum(double v);

/**
 * Fetch (and memoize) the synthetic stand-in of a Table 5 dataset at
 * the given scale. Benches share graphs across runs through this.
 */
const graph::CsrGraph &cachedDataset(const std::string &name,
                                     double scale,
                                     std::uint64_t seed = 1);

/** Run one primitive on a pre-built graph. */
RunResult runPrimitive(const RunConfig &cfg,
                       const graph::CsrGraph &g);

/** Run one primitive, synthesizing the configured dataset. */
RunResult runPrimitive(const RunConfig &cfg);

} // namespace scusim::harness

#endif // SCUSIM_HARNESS_RUNNER_HH
