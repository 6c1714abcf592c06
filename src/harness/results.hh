/**
 * @file
 * Structured result sinks: the paper-style fixed-width tables the
 * bench binaries print, plus machine-readable JSON and CSV artifacts
 * so the bench trajectory can be tracked across commits without
 * scraping stdout.
 */

#ifndef SCUSIM_HARNESS_RESULTS_HH
#define SCUSIM_HARNESS_RESULTS_HH

#include <ostream>
#include <string>
#include <vector>

#include "harness/executor.hh"

namespace scusim::harness
{

/** Simple fixed-width table printer (paper-style output). */
class Table
{
  public:
    explicit Table(std::string title) : heading(std::move(title)) {}

    void header(std::vector<std::string> cols);
    void row(std::vector<std::string> cells);

    /** Render to stdout. */
    void print() const;

    /** Render as a JSON object {title, header, rows}. */
    void json(std::ostream &os) const;

    const std::string &title() const { return heading; }

  private:
    std::string heading;
    std::vector<std::string> headerRow;
    std::vector<std::vector<std::string>> rows;
};

/** JSON-escape @p s (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/**
 * Write every record of @p res as a JSON array. Numbers render with
 * %.17g, so equal results produce byte-identical output — the
 * executor determinism test diffs exactly this.
 */
void writeRunsJson(std::ostream &os, const PlanResults &res);

/** The same records as CSV (one header row, one row per run). */
void writeRunsCsv(std::ostream &os, const PlanResults &res);

/**
 * Write a machine-readable failure report: one JSON object per
 * failed run with its label, classified failure kind, error message
 * and per-component diagnostics.
 */
void writeFailureReport(std::ostream &os, const PlanResults &res);

/** Where bench artifacts land: $SCUSIM_ARTIFACT_DIR, default ".". */
std::string artifactDir();

/**
 * Emit the artifact of one bench binary: <name>.json holding the
 * run records and the printed tables, plus <name>.csv with the run
 * records, under artifactDir(). When any run
 * failed, also <name>.failures.json with the failure report. Prints
 * the paths written.
 */
void writeArtifact(const std::string &name, const PlanResults &res,
                   const std::vector<const Table *> &tables);

} // namespace scusim::harness

#endif // SCUSIM_HARNESS_RESULTS_HH
