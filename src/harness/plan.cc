#include "harness/plan.hh"

#include <sstream>

namespace scusim::harness
{

namespace
{

void
appendHash(std::ostringstream &os, const scu::HashConfig &h)
{
    os << h.sizeBytes << "," << h.ways << "," << h.entryBytes;
}

/** Serialize every timing-relevant ScuParams field. */
void
appendScu(std::ostringstream &os, const scu::ScuParams &p)
{
    os << p.pipelineWidth << ";" << p.vectorBufferBytes << ";"
       << p.fifoRequestBytes << ";" << p.hashRequestBytes << ";"
       << p.coalesceInflight << ";" << p.mergeWindow << ";"
       << p.groupSize << ";" << p.opSetupCycles << ";"
       << p.opDrainCycles << ";";
    appendHash(os, p.filterBfsHash);
    os << ";";
    appendHash(os, p.filterSsspHash);
    os << ";";
    appendHash(os, p.groupHash);
}

} // namespace

std::string
runKey(const RunConfig &cfg, const graph::CsrGraph *graph)
{
    std::ostringstream os;
    os << cfg.systemName << "|" << to_string(cfg.primitive) << "|"
       << cfg.dataset << "|" << keyNum(cfg.scale) << "|" << cfg.seed
       << "|" << to_string(cfg.mode) << "|src=" << cfg.alg.source
       << ",it=" << cfg.alg.maxIterations
       << ",prit=" << cfg.alg.prMaxIterations
       << ",preps=" << keyNum(cfg.alg.prEpsilon)
       << ",delta=" << cfg.alg.ssspDelta;
    // SCU parameters only shape the run when an SCU is present;
    // omitting them from GPU-only keys is what shares one baseline
    // across an ablation sweep.
    if (cfg.mode != ScuMode::GpuOnly && cfg.scuOverride) {
        os << "|scu=";
        appendScu(os, *cfg.scuOverride);
    }
    // Budgets decide whether a run completes at all, so they key the
    // memo; an unguarded run's key carries no guards field.
    if (cfg.guards.tickBudget || cfg.guards.stallWindow) {
        os << "|guards=" << cfg.guards.tickBudget << ","
           << cfg.guards.stallWindow;
    }
    // A bare pointer only means "some ad-hoc graph in this process",
    // which is all a memo key needs.
    if (graph)
        os << "|graph=" << static_cast<const void *>(graph);
    return os.str();
}

std::string
runLabel(const RunConfig &cfg)
{
    return to_string(cfg.primitive) + "/" + cfg.systemName + "/" +
           cfg.dataset + "/" + to_string(cfg.mode);
}

ExperimentPlan::ExperimentPlan()
{
    const RunConfig def;
    systemAxis = {def.systemName};
    primitiveAxis = {def.primitive};
    datasetAxis = {def.dataset};
    modeAxis = {def.mode};
    scaleValue = def.scale;
    seedValue = def.seed;
    algValue = def.alg;
}

ExperimentPlan &
ExperimentPlan::systems(std::vector<std::string> v)
{
    axesDeclared = true;
    systemAxis = std::move(v);
    return *this;
}

ExperimentPlan &
ExperimentPlan::primitives(std::vector<Primitive> v)
{
    axesDeclared = true;
    primitiveAxis = std::move(v);
    return *this;
}

ExperimentPlan &
ExperimentPlan::datasets(std::vector<std::string> v)
{
    axesDeclared = true;
    datasetAxis = std::move(v);
    return *this;
}

ExperimentPlan &
ExperimentPlan::modes(std::vector<ScuMode> v)
{
    axesDeclared = true;
    modeAxis = std::move(v);
    modeFn = nullptr;
    return *this;
}

ExperimentPlan &
ExperimentPlan::modesFor(
    std::function<std::vector<ScuMode>(Primitive)> f)
{
    axesDeclared = true;
    modeFn = std::move(f);
    return *this;
}

ExperimentPlan &
ExperimentPlan::scale(double s)
{
    scaleValue = s;
    return *this;
}

ExperimentPlan &
ExperimentPlan::seed(std::uint64_t s)
{
    seedValue = s;
    return *this;
}

ExperimentPlan &
ExperimentPlan::algOptions(const alg::AlgOptions &o)
{
    algValue = o;
    return *this;
}

ExperimentPlan &
ExperimentPlan::graph(const graph::CsrGraph *g, std::string name)
{
    graphPtr = g;
    datasetAxis = {std::move(name)};
    return *this;
}

ExperimentPlan &
ExperimentPlan::ablate(
    std::string axis,
    std::vector<std::pair<std::string, scu::ScuParams>> variants)
{
    axesDeclared = true;
    ablateAxis = std::move(axis);
    ablateVariants = std::move(variants);
    return *this;
}

ExperimentPlan &
ExperimentPlan::add(RunConfig cfg, std::string label)
{
    PlannedRun r;
    r.cfg = std::move(cfg);
    r.graph = graphPtr;
    r.key = runKey(r.cfg, r.graph);
    r.label = label.empty() ? runLabel(r.cfg) : std::move(label);
    extras.push_back(std::move(r));
    return *this;
}

std::vector<PlannedRun>
ExperimentPlan::expand() const
{
    std::vector<PlannedRun> out;
    std::vector<std::string> seen;
    auto push = [&](PlannedRun r) {
        for (const auto &k : seen)
            if (k == r.key)
                return;
        seen.push_back(r.key);
        out.push_back(std::move(r));
    };

    // An extras-only plan states its runs exhaustively: don't smuggle
    // in the one-cell default matrix.
    if (!extras.empty() && !axesDeclared) {
        for (const auto &e : extras)
            push(e);
        return out;
    }

    // One no-override "variant" when no ablation axis is declared.
    std::vector<std::pair<std::string, scu::ScuParams>> variants;
    if (ablateVariants.empty())
        variants.emplace_back("", scu::ScuParams{});
    const auto &vars =
        ablateVariants.empty() ? variants : ablateVariants;

    for (Primitive prim : primitiveAxis) {
        const std::vector<ScuMode> modes =
            modeFn ? modeFn(prim) : modeAxis;
        for (const auto &sys : systemAxis) {
            for (const auto &ds : datasetAxis) {
                for (ScuMode mode : modes) {
                    for (const auto &var : vars) {
                        RunConfig cfg;
                        cfg.systemName = sys;
                        cfg.primitive = prim;
                        cfg.dataset = ds;
                        cfg.mode = mode;
                        cfg.scale = scaleValue;
                        cfg.seed = seedValue;
                        cfg.alg = algValue;
                        if (!ablateVariants.empty())
                            cfg.scuOverride = var.second;
                        PlannedRun r;
                        r.cfg = std::move(cfg);
                        r.graph = graphPtr;
                        r.key = runKey(r.cfg, r.graph);
                        r.label = runLabel(r.cfg);
                        if (!ablateVariants.empty() &&
                            r.cfg.mode != ScuMode::GpuOnly)
                            r.label += "/" + ablateAxis + "=" +
                                       var.first;
                        push(std::move(r));
                    }
                }
            }
        }
    }
    for (const auto &e : extras)
        push(e);
    return out;
}

} // namespace scusim::harness
