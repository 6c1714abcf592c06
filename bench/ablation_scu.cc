/**
 * @file
 * Ablations of the SCU design choices the paper calls out:
 *
 *  - pipeline width (Section 5.1's scalability parameter),
 *  - filtering hash capacity (effectiveness vs size trade-off of
 *    Section 4.2),
 *  - grouping group size (Section 4.3's 8-vs-32 discussion).
 *
 * All on the TX1 system with the duplicate-heavy kron dataset. Each
 * sweep is one ExperimentPlan with an ablation axis; the three
 * expanded sweeps run as a single parallel batch.
 */

#include "bench_common.hh"

using namespace scusim;
using namespace scusim::bench;

namespace
{

harness::ExperimentPlan
tx1KronPlan(harness::Primitive prim)
{
    return harness::ExperimentPlan()
        .systems({"TX1"})
        .primitives({prim})
        .datasets({"kron"})
        .modes({harness::ScuMode::ScuEnhanced})
        .scale(benchScale());
}

} // namespace

int
main(int argc, char **argv)
{
    rejectBenchArgs(argc, argv);

    std::vector<std::pair<std::string, scu::ScuParams>> widths;
    for (unsigned w : {1u, 2u, 4u, 8u}) {
        scu::ScuParams sp = scu::ScuParams::forTx1();
        sp.pipelineWidth = w;
        widths.emplace_back(std::to_string(w), sp);
    }
    auto widthPlan = tx1KronPlan(harness::Primitive::Bfs)
                         .ablate("width", widths);

    std::vector<std::pair<std::string, scu::ScuParams>> hashes;
    for (std::uint64_t kb : {8, 33, 132, 528}) {
        scu::ScuParams sp = scu::ScuParams::forTx1();
        sp.filterBfsHash.sizeBytes = kb << 10;
        hashes.emplace_back(std::to_string(kb), sp);
    }
    auto hashPlan = tx1KronPlan(harness::Primitive::Bfs)
                        .ablate("hashKB", hashes);

    std::vector<std::pair<std::string, scu::ScuParams>> groups;
    for (unsigned gs : {4u, 8u, 32u}) {
        scu::ScuParams sp = scu::ScuParams::forTx1();
        sp.groupSize = gs;
        groups.emplace_back(std::to_string(gs), sp);
    }
    auto groupPlan = tx1KronPlan(harness::Primitive::Sssp)
                         .ablate("group", groups);

    // One batch: the executor interleaves all three sweeps.
    auto runs = widthPlan.expand();
    for (auto &plan : {hashPlan, groupPlan})
        for (auto &r : plan.expand())
            runs.push_back(r);
    harness::ExecutorOptions opts = benchExecutorOptions();
    opts.jobs = harness::executorJobs();
    std::printf("executing %zu runs on %u workers "
                "(SCUSIM_JOBS to change)...\n",
                runs.size(), opts.jobs);
    auto res = harness::runPlan(runs, opts);

    harness::Table t1(
        "Ablation: SCU pipeline width (BFS, kron, TX1)");
    t1.header({"width", "total cycles", "SCU busy cycles"});
    for (const auto &w : widths) {
        const std::string label =
            "BFS/TX1/kron/scu-enhanced/width=" + w.first;
        const auto *r = res.tryByLabel(label);
        if (!r) {
            const std::string cell = failCell(res.record(label));
            t1.row({w.first, cell, cell});
            continue;
        }
        t1.row({w.first,
                fmt("%.0f", static_cast<double>(r->totalCycles)),
                fmt("%.0f",
                    static_cast<double>(r->scuBusyCycles))});
    }
    t1.print();

    harness::Table t2(
        "Ablation: BFS filtering hash capacity (kron, TX1)");
    t2.header({"hash KB", "duplicates filtered", "GPU edge work",
               "total cycles"});
    for (const auto &h : hashes) {
        const std::string label =
            "BFS/TX1/kron/scu-enhanced/hashKB=" + h.first;
        const auto *r = res.tryByLabel(label);
        if (!r) {
            const std::string cell = failCell(res.record(label));
            t2.row({h.first, cell, cell, cell});
            continue;
        }
        t2.row({h.first,
                fmt("%.0f", static_cast<double>(
                                r->algMetrics.scuFiltered)),
                fmt("%.0f", static_cast<double>(
                                r->algMetrics.gpuEdgeWork)),
                fmt("%.0f",
                    static_cast<double>(r->totalCycles))});
    }
    t2.print();

    harness::Table t3(
        "Ablation: grouping group size (SSSP, kron, TX1; "
        "paper picks 8)");
    t3.header({"group size", "GPU coalescing efficiency",
               "total cycles"});
    for (const auto &g : groups) {
        const std::string label =
            "SSSP/TX1/kron/scu-enhanced/group=" + g.first;
        const auto *r = res.tryByLabel(label);
        if (!r) {
            const std::string cell = failCell(res.record(label));
            t3.row({g.first, cell, cell});
            continue;
        }
        t3.row({g.first, fmt("%.3f", r->coalescingEfficiency),
                fmt("%.0f",
                    static_cast<double>(r->totalCycles))});
    }
    t3.print();

    harness::writeArtifact("ablation_scu", res, {&t1, &t2, &t3});
    return res.failures() ? 1 : 0;
}
