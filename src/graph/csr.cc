#include "graph/csr.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "common/logging.hh"

namespace scusim::graph
{

namespace
{

/** Rows shorter than this sort by comparison, longer ones by radix. */
constexpr std::size_t radixCutoff = 64;

/**
 * Sort @p len packed (dst << 32 | weight) keys ascending: an LSD radix
 * sort with one counting pass per key byte that varies among them,
 * ping-ponging between @p keys and @p tmp. Returns whichever of the
 * two holds the sorted keys.
 */
const std::uint64_t *
sortKeys(std::uint64_t *keys, std::uint64_t *tmp, std::size_t len)
{
    if (len < radixCutoff) {
        std::sort(keys, keys + len);
        return keys;
    }
    std::uint64_t any = 0, all = ~std::uint64_t{0};
    for (std::size_t i = 0; i < len; ++i) {
        any |= keys[i];
        all &= keys[i];
    }
    const std::uint64_t varying = any ^ all;
    for (unsigned shift = 0; shift < 64; shift += 8) {
        if (((varying >> shift) & 0xff) == 0)
            continue;
        std::array<std::size_t, 256> start{};
        for (std::size_t i = 0; i < len; ++i)
            ++start[(keys[i] >> shift) & 0xff];
        std::size_t sum = 0;
        for (auto &c : start)
            sum += std::exchange(c, sum);
        for (std::size_t i = 0; i < len; ++i)
            tmp[start[(keys[i] >> shift) & 0xff]++] = keys[i];
        std::swap(keys, tmp);
    }
    return keys;
}

} // namespace

CsrGraph
CsrGraph::fromEdgeList(EdgeList el, bool dedup)
{
    CsrGraph g;
    g.n = el.numNodes;
    for (const auto &e : el.edges) {
        fatal_if(e.src >= g.n || e.dst >= g.n,
                 "edge (%u -> %u) out of range for %u nodes", e.src,
                 e.dst, g.n);
    }

    // Count out-degrees, then prefix-sum them into row starts.
    g.offsets.assign(static_cast<std::size_t>(g.n) + 1, 0);
    for (const auto &e : el.edges)
        ++g.offsets[e.src + 1];
    EdgeId max_degree = 0;
    for (std::size_t u = 1; u <= g.n; ++u) {
        max_degree = std::max(max_degree, g.offsets[u]);
        g.offsets[u] += g.offsets[u - 1];
    }

    // Scatter each edge into its source's row of dst and w, which
    // hold 8 B an edge next to the input's 12: the build's peak.
    // offsets[u] serves as row u's cursor and ends at the row's end,
    // so the offsets shift back by one afterwards.
    g.dst.resize(el.edges.size());
    g.w.resize(el.edges.size());
    for (const auto &e : el.edges) {
        const EdgeId i = g.offsets[e.src]++;
        g.dst[i] = e.dst;
        g.w[i] = e.weight;
    }
    std::vector<CooEdge>().swap(el.edges);
    std::copy_backward(g.offsets.begin(), g.offsets.end() - 1,
                       g.offsets.end());
    g.offsets[0] = 0;

    // Sort each row as packed (dst << 32 | weight) keys, which order
    // like (dst, weight), in a scratch buffer of two max-degree halves,
    // and unpack it back in place.
    std::vector<std::uint64_t> scratch(2 * max_degree);
    std::uint64_t *const keys = scratch.data();
    EdgeId kept = 0;
    for (NodeId u = 0; u < g.n; ++u) {
        const EdgeId b = g.offsets[u];
        const std::size_t len = g.offsets[u + 1] - b;
        for (std::size_t i = 0; i < len; ++i)
            keys[i] = std::uint64_t{g.dst[b + i]} << 32 | g.w[b + i];
        const std::uint64_t *sorted = sortKeys(keys, keys + len, len);
        g.offsets[u] = kept;
        for (std::size_t i = 0; i < len; ++i) {
            // Dedup keeps the first key of each run of equal dst: the
            // weight orders after dst, so that is the minimum weight.
            if (dedup && i > 0 && sorted[i] >> 32 == sorted[i - 1] >> 32)
                continue;
            g.dst[kept] = static_cast<NodeId>(sorted[i] >> 32);
            g.w[kept] = static_cast<Weight>(sorted[i]);
            ++kept;
        }
    }
    g.offsets[g.n] = kept;
    if (kept < g.dst.size()) {
        g.dst.resize(kept);
        g.dst.shrink_to_fit();
        g.w.resize(kept);
        g.w.shrink_to_fit();
    }
    return g;
}

CsrGraph
CsrGraph::fromCsrArrays(NodeId n, std::vector<EdgeId> offsets,
                        std::vector<NodeId> dst, std::vector<Weight> w)
{
    CsrGraph g;
    g.n = n;
    g.offsets = std::move(offsets);
    g.dst = std::move(dst);
    g.w = std::move(w);
    fatal_if(g.dst.size() != g.w.size(),
             "edge/weight array size mismatch (%zu vs %zu)",
             g.dst.size(), g.w.size());
    g.validate();
    return g;
}

void
CsrGraph::validate() const
{
    const std::span<const EdgeId> off = adjacencyOffsets();
    const std::span<const NodeId> d = edgeArray();
    panic_if(off.size() != static_cast<std::size_t>(n) + 1,
             "offset array size mismatch");
    panic_if(off.front() != 0, "offsets must start at 0");
    panic_if(off.back() != numEdges(),
             "offsets must end at numEdges");
    for (NodeId u = 0; u < n; ++u) {
        panic_if(off[u] > off[u + 1],
                 "non-monotone offsets at node %u", u);
        for (EdgeId e = off[u]; e < off[u + 1]; ++e) {
            panic_if(d[e] >= n, "edge target out of range");
            panic_if(e + 1 < off[u + 1] && d[e] > d[e + 1],
                     "adjacency of node %u not sorted", u);
        }
    }
}

CsrGraph
referenceGraph()
{
    // Figure 2a: A->B(2), A->C(3), A->D(1), B->E(1), B->F(1),
    // C->F(2), D->C(1), D->G(2). Nodes A..G = 0..6.
    EdgeList el;
    el.numNodes = 7;
    el.edges = {
        {0, 1, 2}, {0, 2, 3}, {0, 3, 1}, {1, 4, 1},
        {1, 5, 1}, {2, 5, 2}, {3, 2, 1}, {3, 6, 2},
    };
    return CsrGraph::fromEdgeList(std::move(el));
}

} // namespace scusim::graph
