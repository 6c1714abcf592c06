#include "harness/results.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/logging.hh"

namespace scusim::harness
{

void
Table::header(std::vector<std::string> cols)
{
    headerRow = std::move(cols);
}

void
Table::row(std::vector<std::string> cells)
{
    rows.push_back(std::move(cells));
}

void
Table::print() const
{
    std::vector<std::size_t> widths(headerRow.size(), 0);
    auto widen = [&](const std::vector<std::string> &r) {
        for (std::size_t i = 0; i < r.size(); ++i) {
            if (i >= widths.size())
                widths.resize(i + 1, 0);
            widths[i] = std::max(widths[i], r[i].size());
        }
    };
    widen(headerRow);
    for (const auto &r : rows)
        widen(r);

    // Result tables are the benches' stdout product, not diagnostics
    // — stderr logging is the wrong channel for them.
    // simlint: allow(direct-output)
    std::printf("\n=== %s ===\n", heading.c_str());
    auto print_row = [&](const std::vector<std::string> &r) {
        for (std::size_t i = 0; i < r.size(); ++i)
            std::printf("%-*s  ", // simlint: allow(direct-output)
                        static_cast<int>(widths[i]), r[i].c_str());
        std::printf("\n"); // simlint: allow(direct-output)
    };
    print_row(headerRow);
    for (const auto &r : rows)
        print_row(r);
}

namespace
{

void
jsonStringArray(std::ostream &os,
                const std::vector<std::string> &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << "\"" << jsonEscape(v[i]) << "\"";
    os << "]";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Table::json(std::ostream &os) const
{
    os << "{\"title\":\"" << jsonEscape(heading)
       << "\",\"header\":";
    jsonStringArray(os, headerRow);
    os << ",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        os << (i ? "," : "");
        jsonStringArray(os, rows[i]);
    }
    os << "]}";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/** The flattened fields every run record exports. */
struct Field
{
    const char *name;
    std::string (*get)(const RunRecord &);
};

std::string
quoted(const std::string &s)
{
    // Built by append rather than operator+ chaining: GCC 12's
    // -Wrestrict misfires on literal+string+literal in Release.
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    out += jsonEscape(s);
    out += '"';
    return out;
}

const Field runFields[] = {
    {"label", [](const RunRecord &r) { return quoted(r.run.label); }},
    {"system",
     [](const RunRecord &r) { return quoted(r.run.cfg.systemName); }},
    {"primitive",
     [](const RunRecord &r) {
         return quoted(to_string(r.run.cfg.primitive));
     }},
    {"dataset",
     [](const RunRecord &r) { return quoted(r.run.cfg.dataset); }},
    {"mode",
     [](const RunRecord &r) {
         return quoted(to_string(r.run.cfg.mode));
     }},
    {"scale",
     [](const RunRecord &r) { return num(r.run.cfg.scale); }},
    {"seed",
     [](const RunRecord &r) {
         return std::to_string(r.run.cfg.seed);
     }},
    {"ok", [](const RunRecord &r) {
         return std::string(r.ok ? "true" : "false");
     }},
    {"error", [](const RunRecord &r) { return quoted(r.error); }},
    {"failureKind",
     [](const RunRecord &r) {
         if (r.ok)
             return quoted("");
         // A failed run without a classified kind was a plain
         // exception (bad config, ...), not a simulation failure.
         return quoted(r.failure ? to_string(*r.failure) : "error");
     }},
    {"validated",
     [](const RunRecord &r) {
         return std::string(r.ok && r.result.validated ? "true"
                                                       : "false");
     }},
    {"totalCycles",
     [](const RunRecord &r) {
         return std::to_string(r.result.totalCycles);
     }},
    {"seconds", [](const RunRecord &r) { return num(r.result.seconds); }},
    {"gpuCompactionCycles",
     [](const RunRecord &r) {
         return std::to_string(r.result.gpuCompactionCycles);
     }},
    {"gpuProcessingCycles",
     [](const RunRecord &r) {
         return std::to_string(r.result.gpuProcessingCycles);
     }},
    {"scuBusyCycles",
     [](const RunRecord &r) {
         return std::to_string(r.result.scuBusyCycles);
     }},
    {"gpuThreadInstrs",
     [](const RunRecord &r) { return num(r.result.gpuThreadInstrs); }},
    {"coalescingEfficiency",
     [](const RunRecord &r) {
         return num(r.result.coalescingEfficiency);
     }},
    {"txnsPerMemInstr",
     [](const RunRecord &r) { return num(r.result.txnsPerMemInstr); }},
    {"bwUtilization",
     [](const RunRecord &r) { return num(r.result.bwUtilization); }},
    {"l2HitRate",
     [](const RunRecord &r) { return num(r.result.l2HitRate); }},
    {"dramLines",
     [](const RunRecord &r) { return num(r.result.dramLines); }},
    {"energyTotalJ",
     [](const RunRecord &r) { return num(r.result.energy.totalJ()); }},
    {"energyGpuJ",
     [](const RunRecord &r) {
         return num(r.result.energy.gpuSideJ());
     }},
    {"energyScuJ",
     [](const RunRecord &r) {
         return num(r.result.energy.scuSideJ());
     }},
    {"iterations",
     [](const RunRecord &r) {
         return std::to_string(r.result.algMetrics.iterations);
     }},
    {"gpuEdgeWork",
     [](const RunRecord &r) {
         return std::to_string(r.result.algMetrics.gpuEdgeWork);
     }},
    {"rawExpanded",
     [](const RunRecord &r) {
         return std::to_string(r.result.algMetrics.rawExpanded);
     }},
    {"scuFiltered",
     [](const RunRecord &r) {
         return std::to_string(r.result.algMetrics.scuFiltered);
     }},
    // Constant columns of the artifact schema: every run is on one
    // device and moves nothing between devices.
    {"deviceCount", [](const RunRecord &) { return std::string("1"); }},
    {"icnMessages", [](const RunRecord &) { return std::string("0"); }},
    {"icnBytes", [](const RunRecord &) { return std::string("0"); }},
};

} // namespace

void
writeRunsJson(std::ostream &os, const PlanResults &res)
{
    os << "[";
    bool firstRec = true;
    for (const auto &r : res.records()) {
        os << (firstRec ? "" : ",") << "\n  {";
        bool first = true;
        for (const auto &f : runFields) {
            os << (first ? "" : ",") << "\"" << f.name
               << "\":" << f.get(r);
            first = false;
        }
        os << "}";
        firstRec = false;
    }
    os << "\n]";
}

void
writeRunsCsv(std::ostream &os, const PlanResults &res)
{
    bool first = true;
    for (const auto &f : runFields) {
        os << (first ? "" : ",") << f.name;
        first = false;
    }
    os << "\n";
    for (const auto &r : res.records()) {
        first = true;
        for (const auto &f : runFields) {
            std::string v = f.get(r);
            // JSON strings are already quoted+escaped; CSV reuses
            // them (quotes around fields are valid CSV quoting for
            // our escape-free field set).
            os << (first ? "" : ",") << v;
            first = false;
        }
        os << "\n";
    }
}

void
writeFailureReport(std::ostream &os, const PlanResults &res)
{
    os << "{\"failures\":[";
    bool first = true;
    for (const auto &r : res.records()) {
        if (r.ok)
            continue;
        os << (first ? "" : ",") << "\n  {\"label\":"
           << quoted(r.run.label) << ",\"failureKind\":"
           << quoted(r.failure ? to_string(*r.failure) : "error")
           << ",\"error\":" << quoted(r.error)
           << ",\"diagnostics\":" << quoted(r.diagnostics) << "}";
        first = false;
    }
    os << "\n]}\n";
}

std::string
artifactDir()
{
    const char *d = std::getenv("SCUSIM_ARTIFACT_DIR");
    return d ? std::string(d) : std::string(".");
}

void
writeArtifact(const std::string &name, const PlanResults &res,
              const std::vector<const Table *> &tables)
{
    const std::string dir = artifactDir();
    const std::string jsonPath = dir + "/" + name + ".json";
    const std::string csvPath = dir + "/" + name + ".csv";

    std::ofstream js(jsonPath);
    fatal_if(!js, "cannot write artifact '%s'", jsonPath.c_str());
    js << "{\"artifact\":\"" << jsonEscape(name)
       << "\",\"failures\":" << res.failures() << ",\"runs\":";
    writeRunsJson(js, res);
    js << ",\n\"tables\":[";
    for (std::size_t i = 0; i < tables.size(); ++i) {
        js << (i ? "," : "") << "\n";
        tables[i]->json(js);
    }
    js << "]}\n";

    std::ofstream csv(csvPath);
    fatal_if(!csv, "cannot write artifact '%s'", csvPath.c_str());
    writeRunsCsv(csv, res);

    if (res.failures()) {
        const std::string failPath =
            dir + "/" + name + ".failures.json";
        std::ofstream fs(failPath);
        fatal_if(!fs, "cannot write artifact '%s'",
                 failPath.c_str());
        writeFailureReport(fs, res);
        // simlint: allow(direct-output)
        std::printf("\nfailure report: %s\n", failPath.c_str());
    }

    // simlint: allow(direct-output)
    std::printf("\nartifacts: %s, %s\n", jsonPath.c_str(),
                csvPath.c_str());
}

} // namespace scusim::harness
