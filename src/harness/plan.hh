/**
 * @file
 * Declarative experiment plans. A plan describes a cartesian matrix
 * of runs — systems x primitives x datasets x modes, optionally an
 * ablation axis of SCU-parameter variants — and expands it into a
 * deduplicated, deterministically ordered list of RunConfigs. The
 * paper's figures (1, 9-13) and the ablations are all instances of
 * such matrices; the executor (executor.hh) runs them in parallel.
 */

#ifndef SCUSIM_HARNESS_PLAN_HH
#define SCUSIM_HARNESS_PLAN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"

namespace scusim::harness
{

/** One expanded run of a plan. */
struct PlannedRun
{
    /**
     * Canonical identity of the configuration: two runs with equal
     * keys produce bit-identical results, so the key doubles as the
     * dedup and memoization handle. GPU-only runs ignore the SCU
     * override in their key — that is what lets one baseline be
     * shared across a whole ablation sweep.
     */
    std::string key;
    /** Human-readable "PRIM/system/dataset/mode[/axis=variant]". */
    std::string label;
    RunConfig cfg;
    /**
     * Caller-owned pre-built graph; null = synthesize cfg.dataset.
     * The run key embeds the pointer.
     */
    const graph::CsrGraph *graph = nullptr;
};

/**
 * Canonical identity of @p cfg (see PlannedRun::key). A non-null
 * @p graph is keyed by its address, a process-local identity.
 */
std::string runKey(const RunConfig &cfg,
                   const graph::CsrGraph *graph = nullptr);

/** Default label: "PRIM/system/dataset/mode". */
std::string runLabel(const RunConfig &cfg);

/**
 * Builder for a run matrix. Every axis defaults to the singleton
 * taken from a default-constructed RunConfig, so a plan only states
 * the axes it actually sweeps:
 *
 *     auto res = runPlan(ExperimentPlan()
 *                            .systems({"GTX980", "TX1"})
 *                            .primitives(allPrimitives())
 *                            .datasets(benchDatasets())
 *                            .modes({ScuMode::GpuOnly,
 *                                    ScuMode::ScuEnhanced})
 *                            .scale(0.05));
 */
class ExperimentPlan
{
  public:
    ExperimentPlan();

    ExperimentPlan &systems(std::vector<std::string> v);
    ExperimentPlan &primitives(std::vector<Primitive> v);
    ExperimentPlan &datasets(std::vector<std::string> v);
    ExperimentPlan &modes(std::vector<ScuMode> v);

    /**
     * Per-primitive mode list, for matrices whose SCU mode depends
     * on the primitive (e.g. Figure 10 pairs each primitive with
     * GpuOnly + its best SCU mode). Overrides modes().
     */
    ExperimentPlan &
    modesFor(std::function<std::vector<ScuMode>(Primitive)> f);

    ExperimentPlan &scale(double s);
    ExperimentPlan &seed(std::uint64_t s);
    ExperimentPlan &algOptions(const alg::AlgOptions &o);

    /**
     * Run every cell on @p g (caller-owned, must outlive execution)
     * instead of synthesizing a dataset; @p name becomes the
     * dataset axis label.
     */
    ExperimentPlan &graph(const graph::CsrGraph *g, std::string name);

    /**
     * Ablation axis: each variant replaces the preset ScuParams of
     * every matrix cell (RunConfig::scuOverride). GPU-only cells do
     * not depend on SCU parameters, so dedup collapses them into
     * one shared baseline across all variants.
     */
    ExperimentPlan &
    ablate(std::string axis,
           std::vector<std::pair<std::string, scu::ScuParams>>
               variants);

    /**
     * Append one explicit config outside the matrix (axes that the
     * cartesian builders cannot express, e.g. a per-run source
     * node). Inherits the plan's graph, if any. A plan that only
     * add()s runs — no axis declared — expands to just those runs;
     * the implicit one-cell default matrix is dropped.
     */
    ExperimentPlan &add(RunConfig cfg, std::string label = "");

    /**
     * Expand to the deduplicated run list: matrix cells first
     * (primitive-major, then system, dataset, mode, variant), then
     * the add()ed extras, first occurrence of each key wins.
     */
    std::vector<PlannedRun> expand() const;

  private:
    bool axesDeclared = false;
    std::vector<std::string> systemAxis;
    std::vector<Primitive> primitiveAxis;
    std::vector<std::string> datasetAxis;
    std::vector<ScuMode> modeAxis;
    std::function<std::vector<ScuMode>(Primitive)> modeFn;
    double scaleValue;
    std::uint64_t seedValue;
    alg::AlgOptions algValue;
    const graph::CsrGraph *graphPtr = nullptr;
    std::string ablateAxis;
    std::vector<std::pair<std::string, scu::ScuParams>>
        ablateVariants;
    std::vector<PlannedRun> extras;
};

} // namespace scusim::harness

#endif // SCUSIM_HARNESS_PLAN_HH
