/**
 * @file
 * Tier-2 self-timing benchmark of the simulation core itself: runs
 * the paper's figure workloads under both schedulers (the reference
 * polling loop vs the event-driven default) and reports wall-clock
 * seconds, simulated-ticks-per-second and the resulting speedup per
 * workload. Emits BENCH_core.json (under SCUSIM_ARTIFACT_DIR,
 * default the working directory) so tools/trend can track simulator
 * performance across commits.
 *
 * The executor, memoization and the disk cache are all bypassed —
 * each cell is one direct runPrimitive() call on a pre-built graph,
 * so the timing covers exactly the simulation core. Datasets are
 * synthesized (and interned) before any timer starts.
 *
 * A second table times Sm::tick directly: a standalone SM rig runs
 * synthetic warp programs under the linear Reference issue path vs
 * the SoA+mask default, isolating the scheduler hot path from the
 * rest of the model. Those rows carry "kind": "smtick" in the JSON
 * (reference seconds reuse the pollingSec key, SoA seconds the
 * eventSec key, so downstream tooling keeps one row shape).
 *
 * Usage: perf_core [--smoke]
 *   --smoke   one tiny workload, single rep (the CI wiring check;
 *             the numbers mean nothing at that scale)
 * Environment:
 *   SCUSIM_SCALE         dataset scale (default 0.05)
 *   SCUSIM_PERF_REPS     reps per cell, best-of (default 3)
 *   SCUSIM_SMTICK_WARPS  warps per Sm::tick microbench run
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "bench_common.hh"
#include "common/bits.hh"
#include "gpu/sm.hh"
#include "harness/results.hh"
#include "harness/runner.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::harness;
using sim::SchedulerMode;
using sim::Simulation;

namespace
{

struct Timing
{
    double seconds = 0;
    Tick simTicks = 0;
};

/** Best-of-@p reps wall-clock of one run under @p mode. */
Timing
timeRun(const RunConfig &cfg, SchedulerMode mode, unsigned reps)
{
    Simulation::overrideDefaultScheduler(mode);
    Timing best;
    for (unsigned r = 0; r < reps; ++r) {
        // Host-side wall clock: this bench *measures* the simulator,
        // it does not feed results. simlint: allow(nondeterminism)
        const auto t0 = std::chrono::steady_clock::now();
        RunResult res = runPrimitive(cfg);
        const auto t1 = // simlint: allow(nondeterminism)
            std::chrono::steady_clock::now();
        const double sec =
            std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || sec < best.seconds) {
            best.seconds = sec;
            best.simTicks = res.totalCycles;
        }
        if (!res.validated)
            std::fprintf(stderr,
                         "warning: workload failed validation\n");
    }
    Simulation::clearDefaultSchedulerOverride();
    return best;
}

std::string
workloadLabel(const RunConfig &cfg)
{
    return to_string(cfg.primitive) + "/" + cfg.systemName + "/" +
           cfg.dataset + "/" + to_string(cfg.mode) + "@" +
           bench::fmt("%g", cfg.scale);
}

/**
 * Synthetic warp for the Sm::tick microbench. The programs pin the
 * regimes the issue-path rewrite targets:
 *  - allbusy: long ALU runs, so some warp is issuable nearly every
 *    cycle and the per-tick scan dominates — the regime where the
 *    cond workloads live;
 *  - coalesced: load/compute mix whose lanes merge to one line;
 *  - divergent: scattered loads, heavy coalescer + MSHR pressure.
 */
void
buildSmTickWarp(const std::string &prog, std::uint64_t i,
                gpu::Warp &out)
{
    out.threads = 32;
    auto compute = [&](std::uint32_t count) {
        gpu::WarpInstr wi;
        wi.kind = gpu::ThreadOp::Kind::Compute;
        wi.computeCount = count;
        out.instrs.push_back(std::move(wi));
    };
    auto load = [&](bool coalesced, unsigned op) {
        const std::span<Addr> slots =
            out.appendMem(gpu::ThreadOp::Kind::Load, maskLow(32));
        for (unsigned l = 0; l < 32; ++l) {
            slots[l] =
                coalesced
                    ? Addr{0x100000} + (i * 8 + op) * 128 + l * 4
                    : (mixBits(i * 997 + op * 131 + l) & 0x3FFFFF) *
                          64;
        }
    };

    if (prog == "allbusy-compute") {
        for (unsigned k = 0; k < 40; ++k)
            compute(4);
    } else if (prog == "coalesced-load") {
        for (unsigned k = 0; k < 10; ++k) {
            compute(2);
            load(true, k);
        }
    } else { // divergent-load
        for (unsigned k = 0; k < 10; ++k) {
            compute(1);
            load(false, k);
        }
    }
}

/**
 * Drive one standalone SM over @p warps copies of @p prog on the
 * given issue path, the way the event scheduler would (service busy
 * ticks, fast-forward pure stalls). Returns wall seconds of the
 * drive loop and the serviced-cycle count.
 */
Timing
runSmTick(gpu::SmIssuePath path, const std::string &prog,
          std::uint64_t warps)
{
    gpu::StreamingMultiprocessor::overrideDefaultIssuePath(path);
    gpu::GpuParams params = gpu::GpuParams::gtx980();
    sim::ClockDomain clk(params.freqHz);
    stats::StatGroup root("smtick");
    Simulation simulation;
    mem::MemSystem memsys(params.memsys, clk, &root);
    gpu::StreamingMultiprocessor sm(params, 0, &memsys, &root,
                                    &simulation);
    simulation.addClocked(&sm, "sm0");
    gpu::StreamingMultiprocessor::clearDefaultIssuePathOverride();

    auto next = std::make_shared<std::uint64_t>(0);
    sm.beginKernel(
        [next, warps, &prog](gpu::Warp &out) {
            if (*next >= warps)
                return false;
            buildSmTickWarp(prog, (*next)++, out);
            return true;
        },
        nullptr);

    // Host-side wall clock around the drive loop only; this bench
    // measures the simulator. simlint: allow(nondeterminism)
    const auto t0 = std::chrono::steady_clock::now();
    Tick now = 0;
    while (true) {
        if (sm.busy(now)) {
            sm.tick(now);
            ++now;
            continue;
        }
        const Tick wake = sm.nextWakeTick();
        if (wake == tickNever)
            break;
        now = std::max(now + 1, wake);
    }
    const auto t1 = // simlint: allow(nondeterminism)
        std::chrono::steady_clock::now();
    sm.endKernel(now);
    return {std::chrono::duration<double>(t1 - t0).count(),
            static_cast<Tick>(sm.activeCycles())};
}

/** Best-of-@p reps Sm::tick drive. */
Timing
timeSmTick(gpu::SmIssuePath path, const std::string &prog,
           std::uint64_t warps, unsigned reps)
{
    Timing best;
    for (unsigned r = 0; r < reps; ++r) {
        const Timing t = runSmTick(path, prog, warps);
        if (r == 0 || t.seconds < best.seconds)
            best = t;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke") {
            smoke = true;
            continue;
        }
        std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
        return 2;
    }

    double scale = bench::benchScale();
    unsigned reps = 3;
    if (const char *s = std::getenv("SCUSIM_PERF_REPS"))
        reps = std::max(1, std::atoi(s));
    if (smoke) {
        scale = std::min(scale, 0.01);
        reps = 1;
    }

    // The figure workloads the event-driven scheduler targets. The
    // headline is the memory-stall-heavy regime of the paper's
    // Figure 10 BFS: on the high-diameter delaunay mesh at small
    // scale the frontier stays tiny, so the GTX980's 16 SMs spend
    // most serviced ticks blocked on memory — exactly where per-tick
    // polling wastes the most work. The remaining workloads cover
    // the three primitives' phase mixes at the regular bench scale.
    std::vector<RunConfig> workloads;
    {
        RunConfig cfg;
        cfg.systemName = "GTX980";
        cfg.primitive = Primitive::Bfs;
        cfg.mode = ScuMode::GpuOnly;
        cfg.dataset = "delaunay";
        cfg.scale = std::min(scale, 0.02); // stall-heavy regime
        workloads.push_back(cfg);
        if (!smoke) {
            cfg.dataset = "cond";
            cfg.scale = scale;
            workloads.push_back(cfg);
            cfg.mode = bench::scuModeFor(Primitive::Bfs);
            workloads.push_back(cfg);
            cfg.primitive = Primitive::Sssp;
            cfg.mode = bench::scuModeFor(Primitive::Sssp);
            workloads.push_back(cfg);
            cfg.primitive = Primitive::Pr;
            cfg.mode = bench::scuModeFor(Primitive::Pr);
            workloads.push_back(cfg);
        }
    }

    // Intern every dataset before any timer runs.
    for (const RunConfig &cfg : workloads)
        cachedDataset(cfg.dataset, cfg.scale, cfg.seed);

    std::printf("timing %zu workloads, best of %u rep%s, "
                "scale %g...\n",
                workloads.size(), reps, reps == 1 ? "" : "s",
                scale);

    Table table("Simulation core: event-driven vs polling");
    table.header({"workload", "sim ticks", "polling s", "event s",
                  "speedup", "Mticks/s"});

    std::ostringstream json;
    json << "{\n  \"bench\": \"perf_core\",\n  \"schema\": 2,\n"
         << "  \"scale\": " << scale << ",\n  \"workloads\": [\n";

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const RunConfig &cfg = workloads[i];
        const std::string label = workloadLabel(cfg);
        const Timing polling =
            timeRun(cfg, SchedulerMode::Polling, reps);
        const Timing event =
            timeRun(cfg, SchedulerMode::EventDriven, reps);
        const double speedup =
            event.seconds > 0 ? polling.seconds / event.seconds : 0;
        const double mticks =
            event.seconds > 0
                ? static_cast<double>(event.simTicks) /
                      event.seconds / 1e6
                : 0;

        table.row({label, std::to_string(event.simTicks),
                   bench::fmt("%.3f", polling.seconds),
                   bench::fmt("%.3f", event.seconds),
                   bench::fmt("%.2fx", speedup),
                   bench::fmt("%.1f", mticks)});

        json << "    {\"label\": \"" << jsonEscape(label)
             << "\", \"kind\": \"scheduler\""
             << ", \"simTicks\": " << event.simTicks
             << ", \"pollingSec\": "
             << bench::fmt("%.6f", polling.seconds)
             << ", \"eventSec\": "
             << bench::fmt("%.6f", event.seconds)
             << ", \"speedup\": " << bench::fmt("%.3f", speedup)
             << ", \"eventTicksPerSec\": "
             << bench::fmt("%.0f",
                           mticks * 1e6)
             << "},\n";
    }

    // --- Sm::tick microbench: reference scan vs SoA+mask path ---
    std::uint64_t smWarps = smoke ? 256 : 16384;
    if (const char *w = std::getenv("SCUSIM_SMTICK_WARPS"))
        smWarps = std::max(1L, std::atol(w));
    std::vector<std::string> programs{"allbusy-compute"};
    if (!smoke) {
        programs.push_back("coalesced-load");
        programs.push_back("divergent-load");
    }

    Table smTable("Sm::tick microbench: reference scan vs SoA+mask");
    smTable.header({"program", "serviced ticks", "reference s",
                    "soa s", "speedup", "Mticks/s"});

    for (std::size_t i = 0; i < programs.size(); ++i) {
        const std::string &prog = programs[i];
        const std::string label =
            "smtick/" + prog + "@" + std::to_string(smWarps) + "w";
        const Timing ref = timeSmTick(gpu::SmIssuePath::Reference,
                                      prog, smWarps, reps);
        const Timing soa = timeSmTick(gpu::SmIssuePath::SoaMasked,
                                      prog, smWarps, reps);
        const double speedup =
            soa.seconds > 0 ? ref.seconds / soa.seconds : 0;
        const double mticks =
            soa.seconds > 0
                ? static_cast<double>(soa.simTicks) / soa.seconds /
                      1e6
                : 0;

        smTable.row({prog, std::to_string(soa.simTicks),
                     bench::fmt("%.3f", ref.seconds),
                     bench::fmt("%.3f", soa.seconds),
                     bench::fmt("%.2fx", speedup),
                     bench::fmt("%.1f", mticks)});

        json << "    {\"label\": \"" << jsonEscape(label)
             << "\", \"kind\": \"smtick\""
             << ", \"simTicks\": " << soa.simTicks
             << ", \"pollingSec\": "
             << bench::fmt("%.6f", ref.seconds)
             << ", \"eventSec\": " << bench::fmt("%.6f", soa.seconds)
             << ", \"speedup\": " << bench::fmt("%.3f", speedup)
             << ", \"eventTicksPerSec\": "
             << bench::fmt("%.0f", mticks * 1e6) << "}"
             << (i + 1 < programs.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    table.print();
    smTable.print();

    std::string dir = ".";
    if (const char *d = std::getenv("SCUSIM_ARTIFACT_DIR"))
        dir = d;
    const std::string path = dir + "/BENCH_core.json";
    std::ofstream out(path, std::ios::trunc);
    out << json.str();
    if (!out.good()) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
