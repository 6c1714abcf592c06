/**
 * @file
 * Compressed Sparse Row graph representation, exactly the layout of
 * Figure 2b of the paper: a node array is implicit, adjacency offsets
 * give each node's slice of the edge (destination) array, and a
 * parallel weight array carries edge costs.
 *
 * A CsrGraph owns its three arrays, built from an edge list or from
 * pre-assembled vectors; every dataset, fragment and loaded file is
 * one in-memory graph.
 */

#ifndef SCUSIM_GRAPH_CSR_HH
#define SCUSIM_GRAPH_CSR_HH

#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace scusim::graph
{

/** One directed edge of an edge list (COO triple). */
struct CooEdge
{
    NodeId src;
    NodeId dst;
    Weight weight;

    bool
    operator==(const CooEdge &o) const
    {
        return src == o.src && dst == o.dst && weight == o.weight;
    }
};

/** A raw edge list plus node count; the input to CSR construction. */
struct EdgeList
{
    NodeId numNodes = 0;
    std::vector<CooEdge> edges;
};

/**
 * Immutable CSR graph. Construction orders edges by (src, dst,
 * weight) and can optionally drop duplicate (src, dst) pairs keeping
 * the minimum weight.
 */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Build from an edge list.
     * @param el input edges; consumed (freed once scattered)
     * @param dedup drop duplicate (src,dst) pairs, keep min weight
     */
    static CsrGraph fromEdgeList(EdgeList el, bool dedup = false);

    /**
     * Build directly from pre-assembled CSR arrays. The partitioner
     * uses this to carve fragments out of a parent graph without a
     * round trip through an edge list (which could re-order equal
     * edges and break byte-identity guarantees). The arrays must
     * already satisfy validate(): monotone offsets, in-range
     * destinations, sorted adjacency rows.
     */
    static CsrGraph fromCsrArrays(NodeId n, std::vector<EdgeId> offsets,
                                  std::vector<NodeId> dst,
                                  std::vector<Weight> w);

    NodeId numNodes() const { return n; }
    EdgeId numEdges() const { return static_cast<EdgeId>(dst.size()); }

    /** Out-degree of @p u. */
    EdgeId degree(NodeId u) const { return offsets[u + 1] - offsets[u]; }

    /** First edge index of @p u in the edge array. */
    EdgeId edgeBegin(NodeId u) const { return offsets[u]; }
    EdgeId edgeEnd(NodeId u) const { return offsets[u + 1]; }

    /** Neighbors of @p u. */
    std::span<const NodeId>
    neighbors(NodeId u) const
    {
        const EdgeId b = offsets[u], e = offsets[u + 1];
        return {dst.data() + b, static_cast<std::size_t>(e - b)};
    }

    /** Edge weights of @p u, parallel to neighbors(u). */
    std::span<const Weight>
    edgeWeights(NodeId u) const
    {
        const EdgeId b = offsets[u], e = offsets[u + 1];
        return {w.data() + b, static_cast<std::size_t>(e - b)};
    }

    std::span<const EdgeId> adjacencyOffsets() const { return offsets; }
    std::span<const NodeId> edgeArray() const { return dst; }
    std::span<const Weight> weightArray() const { return w; }

    /** Sum of all degrees divided by n, counting in + out edges. */
    double
    averageDegree() const
    {
        return n ? 2.0 * static_cast<double>(numEdges()) /
                       static_cast<double>(n)
                 : 0;
    }

    /**
     * Internal-consistency check: offsets monotone, destinations in
     * range, adjacency sorted. Panics on violation (simulator bug).
     */
    void validate() const;

  private:
    NodeId n = 0;
    std::vector<EdgeId> offsets; ///< n+1 adjacency offsets
    std::vector<NodeId> dst;     ///< edge destinations
    std::vector<Weight> w;       ///< edge weights
};

/** The 7-node reference graph of Figure 2a, used in tests and docs. */
CsrGraph referenceGraph();

} // namespace scusim::graph

#endif // SCUSIM_GRAPH_CSR_HH
