/**
 * @file
 * Partitioner gate: ownership is a total function (every vertex inner
 * in exactly one fragment), edges are conserved across fragments, and
 * the assignment is a pure function of (graph, numDevices) — repeated
 * builds fingerprint identically, regardless of SCUSIM_JOBS.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <tuple>
#include <vector>

#include "graph/datasets.hh"
#include "graph/partition.hh"

using namespace scusim;
using namespace scusim::graph;

namespace
{

CsrGraph
testGraph()
{
    return makeDataset("cond", 0.05, 1);
}

/** Materialize a span accessor for gtest container comparison. */
template <typename T>
std::vector<T>
vec(std::span<const T> s)
{
    return {s.begin(), s.end()};
}

class PartitionGate : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PartitionGate, EveryVertexIsInnerInExactlyOneFragment)
{
    const CsrGraph g = testGraph();
    const unsigned numDev = GetParam();
    const GraphPartition part = GraphPartition::build(g, numDev);

    ASSERT_EQ(part.numFragments(), numDev);
    ASSERT_EQ(part.numNodes(), g.numNodes());

    std::vector<unsigned> innerCopies(g.numNodes(), 0);
    for (DeviceId d = 0; d < numDev; ++d) {
        const Fragment &f = part.fragment(d);
        EXPECT_EQ(f.device, d);
        EXPECT_EQ(f.numLocal(), f.toGlobal.size());
        EXPECT_EQ(f.csr.numNodes(), f.numLocal());
        for (NodeId l = 0; l < f.numInner; ++l) {
            const NodeId gl = f.globalOf(l);
            ASSERT_LT(gl, g.numNodes());
            ++innerCopies[gl];
            EXPECT_EQ(part.ownerOf(gl), d);
            EXPECT_EQ(part.localOf(gl), l);
        }
        // Ghosts are never owned here and never expand edges.
        for (NodeId l = f.numInner; l < f.numLocal(); ++l) {
            EXPECT_NE(part.ownerOf(f.globalOf(l)), d);
            EXPECT_EQ(f.csr.degree(l), 0u);
        }
    }
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(innerCopies[v], 1u) << "vertex " << v;
}

TEST_P(PartitionGate, EdgesAreConserved)
{
    const CsrGraph g = testGraph();
    const unsigned numDev = GetParam();
    const GraphPartition part = GraphPartition::build(g, numDev);

    using Edge = std::tuple<NodeId, NodeId, Weight>;
    std::vector<Edge> want, got;
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        const auto nbr = g.neighbors(u);
        const auto ws = g.edgeWeights(u);
        for (std::size_t i = 0; i < nbr.size(); ++i)
            want.emplace_back(u, nbr[i], ws[i]);
    }
    for (DeviceId d = 0; d < numDev; ++d) {
        const Fragment &f = part.fragment(d);
        for (NodeId l = 0; l < f.numLocal(); ++l) {
            const auto nbr = f.csr.neighbors(l);
            const auto ws = f.csr.edgeWeights(l);
            for (std::size_t i = 0; i < nbr.size(); ++i) {
                got.emplace_back(f.globalOf(l), f.globalOf(nbr[i]),
                                 ws[i]);
            }
        }
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(want, got);
}

TEST_P(PartitionGate, FingerprintIsReproducible)
{
    const CsrGraph g = testGraph();
    const unsigned numDev = GetParam();

    const auto first = GraphPartition::build(g, numDev).fingerprint();
    const auto again = GraphPartition::build(g, numDev).fingerprint();
    EXPECT_EQ(first, again);

    // The build is single-threaded by construction: the executor's
    // worker count must not leak into the assignment.
    setenv("SCUSIM_JOBS", "7", 1);
    const auto jobs7 = GraphPartition::build(g, numDev).fingerprint();
    setenv("SCUSIM_JOBS", "1", 1);
    const auto jobs1 = GraphPartition::build(g, numDev).fingerprint();
    unsetenv("SCUSIM_JOBS");
    EXPECT_EQ(first, jobs7);
    EXPECT_EQ(first, jobs1);
}

// GCC 12 false positive (GCC bug 105329): -Wrestrict inside the
// std::string memcpy inlined from the test-name concatenation.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
INSTANTIATE_TEST_SUITE_P(DeviceCounts, PartitionGate,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const auto &info) {
                             return "N" + std::to_string(info.param);
                         });
#pragma GCC diagnostic pop

TEST(PartitionSingle, OneFragmentIsTheParentGraphVerbatim)
{
    const CsrGraph g = testGraph();
    const GraphPartition part = GraphPartition::build(g, 1);
    const Fragment &f = part.fragment(0);

    EXPECT_EQ(f.numInner, g.numNodes());
    EXPECT_EQ(f.numOuter, 0u);
    EXPECT_EQ(vec(f.csr.adjacencyOffsets()), vec(g.adjacencyOffsets()));
    EXPECT_EQ(vec(f.csr.edgeArray()), vec(g.edgeArray()));
    EXPECT_EQ(vec(f.csr.weightArray()), vec(g.weightArray()));
}

} // namespace
