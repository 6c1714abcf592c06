/**
 * @file
 * The model-golden matrix shared by determinism_test (ModelGolden)
 * and the golden_bless tool: every primitive on both systems in every
 * SCU mode, over two datasets at scale 0.01.
 * A cell's golden is its total cycle count plus the FNV-1a-64 of its
 * full stats dump, committed one line per cell in
 * tests/golden/model_digests.txt (path: SCUSIM_GOLDEN_DIGESTS).
 */

#ifndef SCUSIM_TESTS_GOLDEN_HH
#define SCUSIM_TESTS_GOLDEN_HH

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "harness/runner.hh"

namespace scusim::golden
{

/** One matrix cell. */
struct Cell
{
    harness::Primitive prim;
    std::string system;
    harness::ScuMode mode;
    std::string dataset;

    /**
     * e.g. BFS_GTX980_scu_enhanced_dev1_cond (a valid gtest name).
     * The "dev1" token is kept so the committed cell names stay
     * unchanged.
     */
    std::string
    name() const
    {
        std::string m = harness::to_string(mode);
        for (char &c : m)
            if (c == '-')
                c = '_';
        return harness::to_string(prim) + "_" + system + "_" + m +
               "_dev1_" + dataset;
    }
};

/** What a cell's golden records. */
struct Digest
{
    Tick cycles = 0;
    std::uint64_t dump = 0; ///< FNV-1a-64 of the full stats dump
    bool validated = false; ///< functional result (not committed)

    bool
    operator==(const Digest &o) const
    {
        return cycles == o.cycles && dump == o.dump;
    }
};

inline std::vector<Cell>
matrix()
{
    using harness::Primitive;
    using harness::ScuMode;
    std::vector<Cell> cells;
    for (Primitive p : {Primitive::Bfs, Primitive::Sssp, Primitive::Pr})
        for (const char *sys : {"GTX980", "TX1"})
            for (ScuMode m : {ScuMode::GpuOnly, ScuMode::ScuBasic,
                              ScuMode::ScuEnhanced})
                for (const char *ds : {"cond", "human"})
                    cells.push_back({p, sys, m, ds});
    return cells;
}

/** Simulate @p c and digest its stats dump. */
inline Digest
runCell(const Cell &c)
{
    harness::RunConfig cfg;
    cfg.systemName = c.system;
    cfg.primitive = c.prim;
    cfg.mode = c.mode;
    cfg.dataset = c.dataset;
    cfg.scale = 0.01;
    std::ostringstream os;
    cfg.dumpStatsTo = &os;
    const harness::RunResult r = harness::runPrimitive(cfg);
    const std::string dump = os.str();
    return {r.totalCycles, fnv1a(dump.data(), dump.size()),
            r.validated};
}

/** "<cell> <cycles> 0x<digest>" */
inline std::string
formatLine(const std::string &cell, const Digest &d)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, " %llu 0x%016" PRIx64,
                  static_cast<unsigned long long>(d.cycles), d.dump);
    return cell + buf;
}

/** Parse the committed file; '#' lines are comments. */
inline std::map<std::string, Digest>
readDigests()
{
    std::map<std::string, Digest> out;
    std::ifstream is(SCUSIM_GOLDEN_DIGESTS);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string cell, hex;
        Digest d;
        if (ls >> cell >> d.cycles >> hex)
            d.dump = std::stoull(hex, nullptr, 16);
        out[cell] = d;
    }
    return out;
}

} // namespace scusim::golden

#endif // SCUSIM_TESTS_GOLDEN_HH
