#include "graph/generators.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace scusim::graph
{

namespace
{

Weight
randWeight(Rng &rng, Weight max_weight)
{
    return static_cast<Weight>(rng.range(1, max_weight));
}

/**
 * Pad @p el with extra locally-biased edges or trim random edges so
 * the final edge count is exactly @p m.
 */
void
fitEdgeCount(EdgeList &el, EdgeId m, Rng &rng, std::uint64_t span,
             Weight max_weight)
{
    if (el.edges.size() > m) {
        // Trim a deterministic random sample: partial Fisher-Yates.
        for (std::size_t i = 0; i < m; ++i) {
            std::size_t j = i + static_cast<std::size_t>(
                                    rng.below(el.edges.size() - i));
            std::swap(el.edges[i], el.edges[j]);
        }
        el.edges.resize(m);
        return;
    }
    const std::uint64_t n = el.numNodes;
    while (el.edges.size() < m) {
        auto u = static_cast<NodeId>(rng.below(n));
        std::uint64_t lo = u > span ? u - span : 0;
        std::uint64_t hi = std::min<std::uint64_t>(n - 1, u + span);
        auto v = static_cast<NodeId>(rng.range(lo, hi));
        if (v == u)
            continue;
        el.edges.push_back({u, v, randWeight(rng, max_weight)});
    }
}

} // namespace

EdgeList
erdosRenyi(NodeId n, EdgeId m, Rng &rng, Weight max_weight)
{
    fatal_if(n < 2, "erdosRenyi needs at least 2 nodes");
    EdgeList el;
    el.numNodes = n;
    el.edges.reserve(m);
    while (el.edges.size() < m) {
        auto u = static_cast<NodeId>(rng.below(n));
        auto v = static_cast<NodeId>(rng.below(n));
        if (u == v)
            continue;
        el.edges.push_back({u, v, randWeight(rng, max_weight)});
    }
    return el;
}

EdgeList
rmat(unsigned scale_log2, EdgeId m, Rng &rng, const RmatParams &p,
     Weight max_weight)
{
    const NodeId n = static_cast<NodeId>(1) << scale_log2;
    EdgeList el;
    el.numNodes = n;
    el.edges.reserve(m);
    const double ab = p.a + p.b;
    const double abc = p.a + p.b + p.c;
    while (el.edges.size() < m) {
        NodeId u = 0, v = 0;
        for (unsigned bit = 0; bit < scale_log2; ++bit) {
            // Quadrant a, b, c or d as 0..3: its high bit picks the
            // row half, its low bit the column half.
            const double r = rng.uniform();
            const unsigned q = (r >= p.a) + (r >= ab) + (r >= abc);
            u = (u << 1) | (q >> 1);
            v = (v << 1) | (q & 1);
        }
        if (!p.allowSelfLoops && u == v)
            continue;
        el.edges.push_back({u, v, randWeight(rng, max_weight)});
    }
    return el;
}

EdgeList
roadNetwork(NodeId n, EdgeId m, Rng &rng, Weight max_weight)
{
    EdgeList el;
    el.numNodes = n;
    el.edges.reserve(m + 16);
    const auto width = static_cast<std::uint64_t>(
        std::sqrt(static_cast<double>(n) * 1.4));
    const double keep = 0.92; // some road segments are missing

    for (NodeId u = 0; u < n; ++u) {
        const std::uint64_t x = u % width;
        // East link.
        if (x + 1 < width && u + 1 < n && rng.chance(keep)) {
            Weight w = randWeight(rng, max_weight);
            el.edges.push_back({u, u + 1, w});
            el.edges.push_back({u + 1, u, w});
        }
        // South link.
        if (u + width < n && rng.chance(keep)) {
            Weight w = randWeight(rng, max_weight);
            auto v = static_cast<NodeId>(u + width);
            el.edges.push_back({u, v, w});
            el.edges.push_back({v, u, w});
        }
    }
    // Ramps / bridges: short-range shortcuts.
    fitEdgeCount(el, m, rng, width * 4, max_weight);
    return el;
}

EdgeList
communityGraph(NodeId n, EdgeId m, Rng &rng, Weight max_weight)
{
    EdgeList el;
    el.numNodes = n;
    el.edges.reserve(m + 16);

    // Power-law-ish community sizes between 4 and 4*avg.
    const std::uint64_t avg_size = 24;
    NodeId next = 0;
    std::vector<std::pair<NodeId, NodeId>> comms; // [begin, end)
    while (next < n) {
        double u = rng.uniform();
        auto size = static_cast<std::uint64_t>(
            4.0 + avg_size / std::sqrt(u + 0.02));
        size = std::min<std::uint64_t>(size, n - next);
        comms.emplace_back(next, static_cast<NodeId>(next + size));
        next = static_cast<NodeId>(next + size);
    }

    // Intra-community collaboration links (symmetric).
    const auto intra = static_cast<EdgeId>(
        static_cast<double>(m) * 0.46); // x2 directions => 92%
    while (el.edges.size() < 2 * intra) {
        const auto &c = comms[rng.below(comms.size())];
        NodeId span = c.second - c.first;
        if (span < 2)
            continue;
        auto u = static_cast<NodeId>(c.first + rng.below(span));
        auto v = static_cast<NodeId>(c.first + rng.below(span));
        if (u == v)
            continue;
        Weight w = randWeight(rng, max_weight);
        el.edges.push_back({u, v, w});
        el.edges.push_back({v, u, w});
    }
    // Cross-community links.
    fitEdgeCount(el, m, rng, n, max_weight);
    return el;
}

EdgeList
triangularMesh(NodeId n, EdgeId m, Rng &rng, Weight max_weight)
{
    EdgeList el;
    el.numNodes = n;
    el.edges.reserve(m + 16);
    const auto width = static_cast<std::uint64_t>(
        std::sqrt(static_cast<double>(n)));

    auto link = [&](NodeId u, std::uint64_t v64) {
        if (v64 >= n)
            return;
        auto v = static_cast<NodeId>(v64);
        Weight w = randWeight(rng, max_weight);
        el.edges.push_back({u, v, w});
        el.edges.push_back({v, u, w});
    };

    for (NodeId u = 0; u < n; ++u) {
        const std::uint64_t x = u % width;
        if (x + 1 < width)
            link(u, u + 1);            // east
        link(u, u + width);            // south
        if (x + 1 < width)
            link(u, u + width + 1);    // south-east (triangulation)
    }
    fitEdgeCount(el, m, rng, width * 2, max_weight);
    return el;
}

EdgeList
denseRegulatory(NodeId n, EdgeId m, Rng &rng, Weight max_weight)
{
    EdgeList el;
    el.numNodes = n;
    el.edges.reserve(m + 16);

    // 4% of nodes are regulators with ~10x the base out-degree.
    const auto regulators = std::max<NodeId>(1, n / 25);
    const double hub_share = 0.55;
    const auto hub_edges = static_cast<EdgeId>(
        static_cast<double>(m) * hub_share);
    const EdgeId base_edges = m - hub_edges;

    // Hub fan-out: targets drawn from clustered windows, producing
    // the duplicate-heavy frontiers characteristic of this dataset.
    const std::uint64_t window = std::max<std::uint64_t>(64, n / 64);
    while (el.edges.size() < hub_edges) {
        auto u = static_cast<NodeId>(rng.below(regulators));
        auto anchor = rng.below(n);
        auto v = static_cast<NodeId>(
            (anchor + rng.below(window)) % n);
        if (v == u)
            continue;
        el.edges.push_back({u, v, randWeight(rng, max_weight)});
    }
    // Background regulation: all nodes, mildly clustered targets.
    while (el.edges.size() < hub_edges + base_edges) {
        auto u = static_cast<NodeId>(rng.below(n));
        NodeId v;
        if (rng.chance(0.7)) {
            auto anchor = rng.below(n);
            v = static_cast<NodeId>((anchor + rng.below(window)) % n);
        } else {
            v = static_cast<NodeId>(rng.below(n));
        }
        if (v == u)
            continue;
        el.edges.push_back({u, v, randWeight(rng, max_weight)});
    }
    return el;
}

EdgeList
femMesh3d(NodeId n, EdgeId m, Rng &rng, Weight max_weight)
{
    EdgeList el;
    el.numNodes = n;
    el.edges.reserve(m + 64);
    const auto side = static_cast<std::uint64_t>(
        std::cbrt(static_cast<double>(n)));
    const std::uint64_t plane = side * side;

    // Stencil: every (dx,dy,dz) in [-2,2]^3 with 0 < |dx|+|dy|+|dz|
    // <= 3 gives 56 neighbors; drop probabilistically to fit m.
    const double keep =
        static_cast<double>(m) / (static_cast<double>(n) * 56.0);

    for (NodeId u = 0; u < n; ++u) {
        const std::int64_t x =
            static_cast<std::int64_t>(u % side);
        const std::int64_t y =
            static_cast<std::int64_t>((u / side) % side);
        const std::int64_t z =
            static_cast<std::int64_t>(u / plane);
        for (int dx = -2; dx <= 2; ++dx) {
            for (int dy = -2; dy <= 2; ++dy) {
                for (int dz = -2; dz <= 2; ++dz) {
                    int l1 = std::abs(dx) + std::abs(dy) +
                             std::abs(dz);
                    if (l1 == 0 || l1 > 3)
                        continue;
                    std::int64_t nx = x + dx, ny = y + dy,
                                 nz = z + dz;
                    if (nx < 0 || ny < 0 || nz < 0 ||
                        nx >= static_cast<std::int64_t>(side) ||
                        ny >= static_cast<std::int64_t>(side))
                        continue;
                    std::uint64_t v64 =
                        static_cast<std::uint64_t>(nz) * plane +
                        static_cast<std::uint64_t>(ny) * side +
                        static_cast<std::uint64_t>(nx);
                    if (v64 >= n)
                        continue;
                    if (!rng.chance(keep))
                        continue;
                    el.edges.push_back(
                        {u, static_cast<NodeId>(v64),
                         randWeight(rng, max_weight)});
                }
            }
        }
    }
    fitEdgeCount(el, m, rng, side, max_weight);
    return el;
}

EdgeList
grid2d(unsigned width, unsigned height, Weight w)
{
    EdgeList el;
    el.numNodes = width * height;
    for (unsigned y = 0; y < height; ++y) {
        for (unsigned x = 0; x < width; ++x) {
            NodeId u = y * width + x;
            if (x + 1 < width) {
                el.edges.push_back({u, u + 1, w});
                el.edges.push_back({u + 1, u, w});
            }
            if (y + 1 < height) {
                NodeId v = u + width;
                el.edges.push_back({u, v, w});
                el.edges.push_back({v, u, w});
            }
        }
    }
    return el;
}

EdgeList
path(NodeId n, Weight w)
{
    EdgeList el;
    el.numNodes = n;
    for (NodeId u = 0; u + 1 < n; ++u)
        el.edges.push_back({u, u + 1, w});
    return el;
}

EdgeList
star(NodeId n, Weight w)
{
    EdgeList el;
    el.numNodes = n;
    for (NodeId v = 1; v < n; ++v)
        el.edges.push_back({0, v, w});
    return el;
}

} // namespace scusim::graph
