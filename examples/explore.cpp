/**
 * @file
 * Command-line exploration tool: run any primitive on any dataset /
 * system / execution mode and print the full metric set. Handy for
 * reproducing single cells of the paper's figures, for trying your
 * own graph files, and for studying model sensitivity.
 *
 * Usage:
 *   explore [--dataset ca|cond|delaunay|human|kron|msdoor]
 *           [--file path.el|.gr|.mtx]  (overrides --dataset)
 *           [--scale 0.25] [--system GTX980|TX1]
 *           [--prim bfs|sssp|pr] [--mode gpu|basic|enhanced|all]
 *           [--seed N] [--stats]   (--stats dumps the component
 *                                   statistics tree per run)
 */

#include <iostream>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "graph/datasets.hh"
#include "graph/loader.hh"
#include "harness/runner.hh"

using namespace scusim;

namespace
{

void
printRun(const char *label, const harness::RunResult &r)
{
    std::printf("%-14s cycles %12llu  J %9.3e  compact %5.1f%%  "
                "coalesce %4.2f  bw %5.1f%%  l2hit %4.2f  "
                "scuBusy %11llu  gpuEdgeWork %10llu  "
                "filtered %10llu  %s\n",
                label,
                static_cast<unsigned long long>(r.totalCycles),
                r.energy.totalJ(), 100.0 * r.compactionShare(),
                r.coalescingEfficiency, 100.0 * r.bwUtilization,
                r.l2HitRate,
                static_cast<unsigned long long>(r.scuBusyCycles),
                static_cast<unsigned long long>(
                    r.algMetrics.gpuEdgeWork),
                static_cast<unsigned long long>(
                    r.algMetrics.scuFiltered),
                r.validated ? "ok" : "INVALID");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dataset = "cond", file, system = "GTX980",
                prim = "bfs", mode = "all";
    double scale = 0.25;
    std::uint64_t seed = 1;
    bool dump_stats = false;

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            fatal_if(i + 1 >= argc, "%s needs a value", flag);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--dataset"))
            dataset = next("--dataset");
        else if (!std::strcmp(argv[i], "--file"))
            file = next("--file");
        else if (!std::strcmp(argv[i], "--scale"))
            scale = std::stod(next("--scale"));
        else if (!std::strcmp(argv[i], "--system"))
            system = next("--system");
        else if (!std::strcmp(argv[i], "--prim"))
            prim = next("--prim");
        else if (!std::strcmp(argv[i], "--mode"))
            mode = next("--mode");
        else if (!std::strcmp(argv[i], "--seed"))
            seed = std::stoull(next("--seed"));
        else if (!std::strcmp(argv[i], "--stats"))
            dump_stats = true;
        else
            fatal("unknown flag '%s'", argv[i]);
    }

    harness::RunConfig cfg;
    cfg.systemName = system;
    cfg.scale = scale;
    cfg.seed = seed;
    cfg.dataset = dataset;
    if (prim == "bfs")
        cfg.primitive = harness::Primitive::Bfs;
    else if (prim == "sssp")
        cfg.primitive = harness::Primitive::Sssp;
    else if (prim == "pr")
        cfg.primitive = harness::Primitive::Pr;
    else
        fatal("unknown primitive '%s'", prim.c_str());

    graph::CsrGraph own;
    const graph::CsrGraph *g = nullptr;
    if (!file.empty()) {
        own = graph::loadGraphFile(file);
        g = &own;
    } else {
        g = &harness::cachedDataset(dataset, scale, seed);
    }
    std::printf("%s %s on %s: %u nodes, %llu edges (scale %.3g)\n",
                system.c_str(), prim.c_str(),
                file.empty() ? dataset.c_str() : file.c_str(),
                g->numNodes(),
                static_cast<unsigned long long>(g->numEdges()),
                scale);

    std::vector<std::pair<const char *, harness::ScuMode>> modes;
    if (mode == "gpu" || mode == "all")
        modes.emplace_back("gpu-only", harness::ScuMode::GpuOnly);
    if (mode == "basic" || mode == "all")
        modes.emplace_back("scu-basic", harness::ScuMode::ScuBasic);
    if (mode == "enhanced" || mode == "all")
        modes.emplace_back("scu-enhanced",
                           harness::ScuMode::ScuEnhanced);
    fatal_if(modes.empty(), "unknown mode '%s'", mode.c_str());

    harness::RunResult first{};
    bool have_first = false;
    for (auto &[label, m] : modes) {
        cfg.mode = m;
        cfg.dumpStatsTo = dump_stats ? &std::cout : nullptr;
        auto r = harness::runPrimitive(cfg, *g);
        printRun(label, r);
        if (!have_first) {
            first = r;
            have_first = true;
        } else {
            std::printf("  vs %s: speedup %.2fx, energy %.2fx\n",
                        modes.front().first,
                        static_cast<double>(first.totalCycles) /
                            static_cast<double>(r.totalCycles),
                        first.energy.totalJ() / r.energy.totalJ());
        }
    }
    return 0;
}
