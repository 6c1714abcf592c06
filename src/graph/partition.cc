#include "graph/partition.hh"

#include <algorithm>
#include <numeric>

#include "common/hash.hh"
#include "common/logging.hh"

namespace scusim::graph
{

GraphPartition
GraphPartition::build(const CsrGraph &g, unsigned numDevices)
{
    fatal_if(numDevices == 0, "cannot partition across zero devices");

    GraphPartition p;
    p.n = g.numNodes();
    p.ownerArr.assign(p.n, 0);
    p.blockLo.assign(numDevices + 1, 0);
    p.frags.resize(numDevices);

    const std::uint64_t n64 = p.n;
    for (unsigned d = 0; d <= numDevices; ++d)
        p.blockLo[d] = static_cast<NodeId>(n64 * d / numDevices);

    for (unsigned d = 0; d < numDevices; ++d) {
        for (NodeId v = p.blockLo[d]; v < p.blockLo[d + 1]; ++v)
            p.ownerArr[v] = d;
    }

    const auto &pOffsets = g.adjacencyOffsets();
    const auto &pDst = g.edgeArray();
    const auto &pW = g.weightArray();

    for (unsigned d = 0; d < numDevices; ++d) {
        Fragment &f = p.frags[d];
        f.device = d;
        const NodeId gLo = p.blockLo[d];
        const NodeId gHi = p.blockLo[d + 1];
        f.numInner = gHi - gLo;

        // Ghosts: every remote destination reachable from an inner
        // row, deduplicated and ordered by global id so local ids are
        // a pure function of the graph.
        std::vector<NodeId> ghosts;
        for (NodeId u = gLo; u < gHi; ++u) {
            for (EdgeId e = pOffsets[u]; e < pOffsets[u + 1]; ++e) {
                const NodeId v = pDst[e];
                if (v < gLo || v >= gHi)
                    ghosts.push_back(v);
            }
        }
        std::sort(ghosts.begin(), ghosts.end());
        ghosts.erase(std::unique(ghosts.begin(), ghosts.end()),
                     ghosts.end());
        f.numOuter = static_cast<NodeId>(ghosts.size());

        f.toGlobal.resize(f.numLocal());
        std::iota(f.toGlobal.begin(), f.toGlobal.begin() + f.numInner,
                  gLo);
        std::copy(ghosts.begin(), ghosts.end(),
                  f.toGlobal.begin() + f.numInner);

        auto ghostLocal = [&](NodeId global) {
            const auto it = std::lower_bound(ghosts.begin(),
                                             ghosts.end(), global);
            return f.numInner +
                   static_cast<NodeId>(it - ghosts.begin());
        };

        // Fragment CSR built straight from the parent arrays; rows
        // are re-sorted (stably) because ghost local ids do not
        // preserve global order relative to inner ids. With no ghosts
        // the copy is verbatim.
        std::vector<EdgeId> offsets(
            static_cast<std::size_t>(f.numLocal()) + 1, 0);
        std::vector<NodeId> dst;
        std::vector<Weight> w;
        dst.reserve(pOffsets[gHi] - pOffsets[gLo]);
        w.reserve(pOffsets[gHi] - pOffsets[gLo]);

        std::vector<std::pair<NodeId, Weight>> row;
        for (NodeId u = gLo; u < gHi; ++u) {
            row.clear();
            for (EdgeId e = pOffsets[u]; e < pOffsets[u + 1]; ++e) {
                const NodeId v = pDst[e];
                const NodeId local = (v >= gLo && v < gHi)
                                         ? v - gLo
                                         : ghostLocal(v);
                row.emplace_back(local, pW[e]);
            }
            std::stable_sort(row.begin(), row.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
            for (const auto &[v, weight] : row) {
                dst.push_back(v);
                w.push_back(weight);
            }
            offsets[u - gLo + 1] = dst.size();
        }
        // Ghost rows stay empty: propagate the final offset.
        for (NodeId l = f.numInner; l < f.numLocal(); ++l)
            offsets[l + 1] = offsets[l];

        f.csr = CsrGraph::fromCsrArrays(f.numLocal(),
                                        std::move(offsets),
                                        std::move(dst), std::move(w));
    }

    return p;
}

namespace
{

/** Fold @p v's 8 bytes, little-endian on every host, into @p h. */
void
fold(std::uint64_t &h, std::uint64_t v)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    h = fnv1a(bytes, sizeof bytes, h);
}

} // namespace

std::uint64_t
GraphPartition::fingerprint() const
{
    std::uint64_t h = fnvOffsetBasis;
    fold(h, n);
    fold(h, frags.size());
    for (const DeviceId d : ownerArr)
        fold(h, d);
    for (const Fragment &f : frags) {
        fold(h, f.numInner);
        fold(h, f.numOuter);
        for (const EdgeId o : f.csr.adjacencyOffsets())
            fold(h, o);
        for (const NodeId v : f.csr.edgeArray())
            fold(h, v);
        for (const Weight wt : f.csr.weightArray())
            fold(h, wt);
        for (const NodeId v : f.toGlobal)
            fold(h, v);
    }
    return h;
}

} // namespace scusim::graph
