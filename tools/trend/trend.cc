/**
 * @file
 * trend: artifact trend / consistency tool (no external deps).
 *
 * Reads a bench result CSV (the writeRunsCsv format: one header row,
 * JSON-style quoted strings) and prints a compact per-run trend table
 * plus a failure summary built from the CSV's own `ok` and
 * `failureKind` columns.
 *
 * With --check it also cross-validates the CSV against the bench's
 * `<artifact>.failures.json` report: every failed CSV row must appear
 * there with the same failureKind, and vice versa — the
 * two artifacts are written by different code paths, so agreement is
 * a real invariant, not a tautology.
 *
 *   trend <artifact.csv> [<artifact.failures.json>]
 *   trend --check <artifact.csv> [<artifact.failures.json>]
 *   trend --self-test
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace
{

struct Row
{
    std::map<std::string, std::string> cols;

    const std::string &
    get(const std::string &name) const
    {
        static const std::string empty;
        auto it = cols.find(name);
        return it == cols.end() ? empty : it->second;
    }
};

/** Unquote a JSON-style string field; bare fields pass through. */
std::string
unquote(const std::string &s)
{
    if (s.size() < 2 || s.front() != '"' || s.back() != '"')
        return s;
    std::string out;
    out.reserve(s.size() - 2);
    for (std::size_t i = 1; i + 1 < s.size(); ++i) {
        char c = s[i];
        if (c == '\\' && i + 2 < s.size()) {
            char n = s[++i];
            switch (n) {
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              default: out.push_back(n); break;
            }
        } else {
            out.push_back(c);
        }
    }
    return out;
}

/** Split one CSV line, honoring the JSON-style quoting of fields. */
std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::string cur;
    bool inQuote = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (inQuote) {
            cur.push_back(c);
            if (c == '\\' && i + 1 < line.size())
                cur.push_back(line[++i]);
            else if (c == '"')
                inQuote = false;
        } else if (c == '"') {
            cur.push_back(c);
            inQuote = true;
        } else if (c == ',') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    fields.push_back(cur);
    return fields;
}

/** Parse the whole CSV document into header-keyed rows. */
std::vector<Row>
parseCsv(std::istream &is, std::string &err)
{
    std::vector<Row> rows;
    std::string line;
    if (!std::getline(is, line)) {
        err = "empty CSV";
        return rows;
    }
    const std::vector<std::string> header = splitCsvLine(line);
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const auto fields = splitCsvLine(line);
        if (fields.size() != header.size()) {
            err = "row with " + std::to_string(fields.size()) +
                  " fields, header has " +
                  std::to_string(header.size());
            return rows;
        }
        Row r;
        for (std::size_t i = 0; i < header.size(); ++i)
            r.cols[header[i]] = unquote(fields[i]);
        rows.push_back(std::move(r));
    }
    return rows;
}

struct FailureEntry
{
    std::string label;
    std::string failureKind;
};

/**
 * Pull label/failureKind out of a failures.json report.
 * Tolerant scanner, not a full JSON parser: the report's shape is
 * fixed (writeFailureReport), one object per failed run.
 */
std::vector<FailureEntry>
parseFailuresJson(const std::string &doc)
{
    std::vector<FailureEntry> out;
    auto stringAfter = [&](std::size_t from, const char *key,
                           std::size_t end) -> std::string {
        const std::string k = std::string("\"") + key + "\":";
        std::size_t p = doc.find(k, from);
        if (p == std::string::npos || p >= end)
            return "";
        p += k.size();
        if (p >= doc.size() || doc[p] != '"')
            return "";
        std::string v;
        for (std::size_t i = p + 1; i < doc.size(); ++i) {
            if (doc[i] == '\\' && i + 1 < doc.size()) {
                v.push_back(doc[++i]);
            } else if (doc[i] == '"') {
                break;
            } else {
                v.push_back(doc[i]);
            }
        }
        return v;
    };
    std::size_t pos = 0;
    for (;;) {
        std::size_t p = doc.find("{\"label\":", pos);
        if (p == std::string::npos)
            break;
        std::size_t end = doc.find('}', p);
        if (end == std::string::npos)
            end = doc.size();
        FailureEntry e;
        e.label = stringAfter(p, "label", end);
        e.failureKind = stringAfter(p, "failureKind", end);
        out.push_back(std::move(e));
        pos = end;
    }
    return out;
}

/** Print the per-run trend table and summary for @p rows. */
void
printTrend(const std::vector<Row> &rows)
{
    std::size_t wLabel = 5;
    for (const auto &r : rows)
        wLabel = std::max(wLabel, r.get("label").size());
    std::printf("%-*s  %-5s %-9s %12s %10s\n",
                static_cast<int>(wLabel), "label", "ok", "failure",
                "cycles", "seconds");
    std::size_t failures = 0;
    for (const auto &r : rows) {
        const bool ok = r.get("ok") == "true";
        failures += !ok;
        std::printf("%-*s  %-5s %-9s %12s %10s\n",
                    static_cast<int>(wLabel),
                    r.get("label").c_str(), r.get("ok").c_str(),
                    ok ? "-" : r.get("failureKind").c_str(),
                    r.get("totalCycles").c_str(),
                    r.get("seconds").c_str());
    }
    std::printf("\n%zu runs, %zu failed\n", rows.size(), failures);
}

/**
 * Cross-check the CSV rows against the failures.json entries.
 * Returns the number of disagreements (0 = consistent), printing
 * one line per problem.
 */
std::size_t
checkConsistency(const std::vector<Row> &rows,
                 const std::vector<FailureEntry> &fails)
{
    std::size_t bad = 0;
    std::map<std::string, const FailureEntry *> byLabel;
    for (const auto &f : fails)
        byLabel[f.label] = &f;

    for (const auto &r : rows) {
        const std::string &label = r.get("label");
        const bool ok = r.get("ok") == "true";
        auto it = byLabel.find(label);
        if (ok) {
            if (it != byLabel.end()) {
                std::printf("MISMATCH %s: ok in CSV but reported in "
                            "failures.json\n", label.c_str());
                ++bad;
            }
            continue;
        }
        if (it == byLabel.end()) {
            std::printf("MISMATCH %s: failed in CSV (%s) but absent "
                        "from failures.json\n", label.c_str(),
                        r.get("failureKind").c_str());
            ++bad;
            continue;
        }
        if (it->second->failureKind != r.get("failureKind")) {
            std::printf("MISMATCH %s: failureKind '%s' (CSV) vs "
                        "'%s' (failures.json)\n", label.c_str(),
                        r.get("failureKind").c_str(),
                        it->second->failureKind.c_str());
            ++bad;
        }
        byLabel.erase(it);
    }
    for (const auto &[label, f] : byLabel) {
        std::printf("MISMATCH %s: in failures.json but not in the "
                    "CSV\n", label.c_str());
        ++bad;
    }
    return bad;
}

int
selfTest()
{
    int failed = 0;
    auto expect = [&](bool cond, const char *what) {
        if (!cond) {
            std::printf("self-test FAILED: %s\n", what);
            ++failed;
        }
    };

    const std::string csv =
        "label,ok,failureKind,totalCycles,seconds\n"
        "\"BFS/GTX980/cond/gpu-only\",true,\"\",123,0.5\n"
        "\"BFS/TX1/cond/scu-enhanced\",false,\"Runaway\",0,0\n"
        "\"PR/TX1/cond/scu-basic\",false,\"Deadlock\",0,0\n";
    std::istringstream is(csv);
    std::string err;
    auto rows = parseCsv(is, err);
    expect(err.empty(), "CSV parses clean");
    expect(rows.size() == 3, "three CSV rows");
    expect(rows[0].get("label") == "BFS/GTX980/cond/gpu-only",
           "label unquoted");
    expect(rows[1].get("failureKind") == "Runaway",
           "failureKind surfaced");
    expect(rows[2].get("totalCycles") == "0", "cycles surfaced");

    const std::string good =
        "{\"failures\":[\n"
        "  {\"label\":\"BFS/TX1/cond/scu-enhanced\","
        "\"failureKind\":\"Runaway\",\"error\":\"x\","
        "\"diagnostics\":\"\"},\n"
        "  {\"label\":\"PR/TX1/cond/scu-basic\","
        "\"failureKind\":\"Deadlock\",\"error\":\"y\","
        "\"diagnostics\":\"\"}\n]}\n";
    auto fails = parseFailuresJson(good);
    expect(fails.size() == 2, "two failure entries");
    expect(checkConsistency(rows, fails) == 0,
           "consistent artifacts check clean");

    // Disagreeing kind, missing entry, spurious entry: 3 problems.
    const std::string bad =
        "{\"failures\":[\n"
        "  {\"label\":\"BFS/TX1/cond/scu-enhanced\","
        "\"failureKind\":\"Deadlock\",\"error\":\"x\","
        "\"diagnostics\":\"\"},\n"
        "  {\"label\":\"SSSP/TX1/cond/scu-basic\","
        "\"failureKind\":\"Panic\",\"error\":\"z\","
        "\"diagnostics\":\"\"}\n]}\n";
    expect(checkConsistency(rows, parseFailuresJson(bad)) == 3,
           "inconsistent artifacts counted");

    std::printf("trend self-test %s\n", failed ? "FAILED" : "OK");
    return failed ? 1 : 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--check] <artifact.csv> "
                 "[<artifact.failures.json>]\n"
                 "       %s --self-test\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test")
            return selfTest();
        if (a == "--check")
            check = true;
        else if (!a.empty() && a[0] == '-')
            return usage(argv[0]);
        else
            paths.push_back(a);
    }
    if (paths.empty() || paths.size() > 2)
        return usage(argv[0]);

    std::ifstream is(paths[0]);
    if (!is) {
        std::fprintf(stderr, "cannot read '%s'\n", paths[0].c_str());
        return 1;
    }
    std::string err;
    const auto rows = parseCsv(is, err);
    if (!err.empty()) {
        std::fprintf(stderr, "%s: %s\n", paths[0].c_str(),
                     err.c_str());
        return 1;
    }
    printTrend(rows);
    if (!check)
        return 0;

    // Default the report path: <artifact>.csv -> <artifact>.failures.json
    std::string failPath = paths.size() == 2 ? paths[1] : paths[0];
    if (paths.size() == 1) {
        const std::string suffix = ".csv";
        if (failPath.size() > suffix.size() &&
            failPath.compare(failPath.size() - suffix.size(),
                             suffix.size(), suffix) == 0)
            failPath.resize(failPath.size() - suffix.size());
        failPath += ".failures.json";
    }

    std::vector<FailureEntry> fails;
    std::ifstream fs(failPath);
    if (fs) {
        std::ostringstream doc;
        doc << fs.rdbuf();
        fails = parseFailuresJson(doc.str());
    } else {
        // No report file is only consistent with a failure-free CSV.
        std::printf("note: no failure report at '%s'\n",
                    failPath.c_str());
    }
    const std::size_t bad = checkConsistency(rows, fails);
    if (bad) {
        std::printf("%zu inconsistencies between '%s' and '%s'\n",
                    bad, paths[0].c_str(), failPath.c_str());
        return 1;
    }
    std::printf("CSV and failure report agree\n");
    return 0;
}
