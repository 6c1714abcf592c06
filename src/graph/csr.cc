#include "graph/csr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace scusim::graph
{

CsrGraph
CsrGraph::fromEdgeList(EdgeList el, bool dedup)
{
    CsrGraph g;
    g.n = el.numNodes;

    auto &edges = el.edges;
    std::sort(edges.begin(), edges.end(),
              [](const CooEdge &a, const CooEdge &b) {
                  if (a.src != b.src)
                      return a.src < b.src;
                  if (a.dst != b.dst)
                      return a.dst < b.dst;
                  return a.weight < b.weight;
              });

    if (dedup) {
        auto last = std::unique(edges.begin(), edges.end(),
                                [](const CooEdge &a, const CooEdge &b) {
                                    return a.src == b.src &&
                                           a.dst == b.dst;
                                });
        edges.erase(last, edges.end());
    }

    g.offsets.assign(static_cast<std::size_t>(g.n) + 1, 0);
    g.dst.reserve(edges.size());
    g.w.reserve(edges.size());
    for (const auto &e : edges) {
        fatal_if(e.src >= g.n || e.dst >= g.n,
                 "edge (%u -> %u) out of range for %u nodes", e.src,
                 e.dst, g.n);
        ++g.offsets[e.src + 1];
        g.dst.push_back(e.dst);
        g.w.push_back(e.weight);
    }
    for (std::size_t i = 1; i <= g.n; ++i)
        g.offsets[i] += g.offsets[i - 1];
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

CsrGraph
CsrGraph::transpose() const
{
    const std::span<const EdgeId> off = adjacencyOffsets();
    const std::span<const NodeId> d = edgeArray();
    const std::span<const Weight> ww = weightArray();
    EdgeList el;
    el.numNodes = n;
    el.edges.reserve(d.size());
    for (NodeId u = 0; u < n; ++u) {
        for (EdgeId e = off[u]; e < off[u + 1]; ++e)
            el.edges.push_back(CooEdge{d[e], u, ww[e]});
    }
    return fromEdgeList(std::move(el));
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
