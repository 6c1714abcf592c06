/**
 * @file
 * golden_bless: re-run every model-golden cell (tests/golden.hh) and
 * rewrite tests/golden/model_digests.txt, printing the total cycles
 * (old -> new) of every cell whose golden changed. Run it after an
 * intended model change and commit the rewritten file, so the change
 * shows up as a reviewed diff:
 *
 *   ./build/tests/golden_bless
 */

#include <cstdio>
#include <fstream>

#include "golden.hh"

using namespace scusim;

int
main()
{
    const auto old = golden::readDigests();
    std::ostringstream out;
    out << "# Model goldens: <cell> <total cycles> <FNV-1a-64 of the "
           "full stats dump>\n"
           "# at scale 0.01. Rewritten by golden_bless; checked by "
           "ModelGolden in determinism_test.\n";
    std::size_t changed = 0, invalid = 0;
    const auto cells = golden::matrix();
    for (const golden::Cell &c : cells) {
        const std::string name = c.name();
        const golden::Digest d = golden::runCell(c);
        if (!d.validated) {
            std::printf("%s: functional validation FAILED\n",
                        name.c_str());
            ++invalid;
        }
        const auto it = old.find(name);
        if (it == old.end()) {
            std::printf("%s: new, %llu cycles\n", name.c_str(),
                        static_cast<unsigned long long>(d.cycles));
            ++changed;
        } else if (!(it->second == d)) {
            std::printf("%s: %llu -> %llu cycles%s\n", name.c_str(),
                        static_cast<unsigned long long>(
                            it->second.cycles),
                        static_cast<unsigned long long>(d.cycles),
                        it->second.cycles == d.cycles
                            ? " (dump differs)"
                            : "");
            ++changed;
        }
        out << golden::formatLine(name, d) << "\n";
    }
    std::ofstream os(SCUSIM_GOLDEN_DIGESTS, std::ios::trunc);
    os << out.str();
    if (!os.flush()) {
        std::fprintf(stderr, "cannot write %s\n", SCUSIM_GOLDEN_DIGESTS);
        return 1;
    }
    std::printf("%zu of %zu cells changed; wrote %s\n", changed,
                cells.size(), SCUSIM_GOLDEN_DIGESTS);
    return invalid ? 1 : 0;
}
