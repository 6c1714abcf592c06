/**
 * @file
 * Sharded-scaling benchmark: the three primitives on both modeled
 * systems at deviceCount 1/2/4, reporting per-device SCU filter hit
 * rates and interconnect traffic as the graph is cut into more
 * fragments. Emits BENCH_shard.json (under SCUSIM_ARTIFACT_DIR,
 * default the working directory) so tools/trend can track how
 * sharding shifts filtering effectiveness and boundary traffic
 * across commits.
 *
 * Usage: perf_shard [--smoke]
 *   --smoke   GTX980 only, deviceCount 1/2, tiny scale (CI wiring)
 * Environment:
 *   SCUSIM_SCALE   dataset scale (default 0.03)
 *   SCUSIM_JOBS    executor worker count (default: all cores)
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/results.hh"
#include "harness/runner.hh"

using namespace scusim;
using namespace scusim::harness;

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

    double scale = bench::benchScale(0.03);
    std::vector<std::string> systems = bench::benchSystems();
    std::vector<unsigned> deviceCounts{1, 2, 4};
    if (smoke) {
        scale = std::min(scale, 0.01);
        systems = {"GTX980"};
        deviceCounts = {1, 2};
    }

    ExperimentPlan plan;
    plan.systems(systems)
        .primitives(bench::benchPrimitives())
        .datasets({"cond"})
        .modesFor([](Primitive p) {
            return std::vector<ScuMode>{bench::scuModeFor(p)};
        })
        .deviceCounts(deviceCounts)
        .scale(scale);
    PlanResults res = bench::runBenchPlan(plan);

    Table table("Sharded scaling: SCU filtering and link traffic");
    table.header({"workload", "dev", "cycles", "icn msgs",
                  "icn bytes", "filter hit rates", "ok"});

    std::ostringstream json;
    json << "{\n  \"bench\": \"perf_shard\",\n  \"schema\": 1,\n"
         << "  \"scale\": " << scale << ",\n  \"workloads\": [\n";

    const auto &records = res.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RunRecord &rec = records[i];
        const RunResult &r = rec.result;

        // Per-device slices exist only on the sharded path; the
        // single-device cells report their aggregate as one slice so
        // every row has a hit-rate column.
        std::vector<DeviceMetrics> devices = r.devices;
        if (devices.empty()) {
            DeviceMetrics dm;
            dm.gpuEdgeWork = r.algMetrics.gpuEdgeWork;
            dm.rawExpanded = r.algMetrics.rawExpanded;
            dm.scuFiltered = r.algMetrics.scuFiltered;
            dm.scuBusyCycles = r.scuBusyCycles;
            devices.push_back(dm);
        }

        std::string rates;
        for (std::size_t d = 0; d < devices.size(); ++d) {
            rates += (d ? " " : "");
            rates += bench::fmt("%.3f", devices[d].filterHitRate());
        }
        const bool ok = rec.ok && r.validated;
        table.row({rec.run.label, std::to_string(r.deviceCount),
                   std::to_string(r.totalCycles),
                   std::to_string(r.icnMessages),
                   std::to_string(r.icnBytes), rates,
                   ok ? "yes" : bench::failCell(&rec)});

        json << "    {\"label\": \"" << jsonEscape(rec.run.label)
             << "\", \"deviceCount\": " << r.deviceCount
             << ", \"totalCycles\": " << r.totalCycles
             << ", \"icnMessages\": " << r.icnMessages
             << ", \"icnBytes\": " << r.icnBytes
             << ", \"validated\": " << (ok ? "true" : "false")
             << ", \"perDevice\": [";
        for (std::size_t d = 0; d < devices.size(); ++d) {
            json << (d ? "," : "") << "{\"gpuEdgeWork\": "
                 << devices[d].gpuEdgeWork << ", \"rawExpanded\": "
                 << devices[d].rawExpanded << ", \"scuFiltered\": "
                 << devices[d].scuFiltered
                 << ", \"filterHitRate\": "
                 << bench::fmt("%.6f", devices[d].filterHitRate())
                 << "}";
        }
        json << "]}" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    table.print();
    // The standard runs artifact too: perf_shard.csv carries the
    // dev<k>_* per-device columns `trend --by-device` renders.
    writeArtifact("perf_shard", res, {&table});

    const std::string path = artifactDir() + "/BENCH_shard.json";
    std::ofstream out(path, std::ios::trunc);
    out << json.str();
    if (!out.good()) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return res.failures() == 0 ? 0 : 1;
}
