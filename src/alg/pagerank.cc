#include "alg/pagerank.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace scusim::alg
{

namespace
{
constexpr float dampening = 0.15f; ///< the paper's alpha

float
asFloat(std::uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

std::uint32_t
asBits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

} // namespace

PageRankRunner::PageRankRunner(harness::System &s,
                               const graph::CsrGraph &graph)
    : PageRankRunner(s, 0, graph, nullptr)
{
}

PageRankRunner::PageRankRunner(harness::System &s, DeviceId d,
                               const graph::CsrGraph &graph,
                               const graph::GraphPartition *p)
    : sys(s), dev(d), part(p),
      frag(p ? &p->fragment(d) : nullptr), g(graph),
      gb(s.addressSpace(d), graph),
      scratch(s.addressSpace(d),
              static_cast<std::size_t>(graph.numEdges()) + 1024)
{
    auto &as = sys.addressSpace(dev);
    const auto n = static_cast<std::size_t>(g.numNodes());
    const auto m = static_cast<std::size_t>(g.numEdges());

    rankBits.allocate(as, "pr_rank", n);
    newRankBits.allocate(as, "pr_new_rank", n);
    contribBits.allocate(as, "pr_contrib", n);
    counts.allocate(as, "pr_counts", n);
    indexes.allocate(as, "pr_indexes", n);
    edgeFrontier.allocate(as, "pr_edge_frontier", m + 1);
    weightFrontier.allocate(as, "pr_weight_frontier", m + 1);
    if (part && part->numFragments() > 1)
        inbox.allocate(as, "pr_inbox", n + 1);
}

void
PageRankRunner::beginRun(const AlgOptions &opt)
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    use_scu = opt.mode != harness::ScuMode::GpuOnly;

    // Initialization: rank <- 1, accumulators <- 0.
    for (std::size_t u = 0; u < n; ++u) {
        rankBits[u] = asBits(1.0f);
        newRankBits[u] = asBits(0.0f);
    }
    gpuWarpKernel(
        sys, "pr_init", gpu::Phase::Processing, n,
        [&](gpu::WarpBuilder &w) {
            w.compute(2);
            w.store(4, elemAt(rankBits));
            w.store(4, elemAt(newRankBits));
        },
        dev);
}

void
PageRankRunner::iterate(AlgMetrics &m,
                        std::vector<BoundaryMsg> *outbox)
{
    const auto n = static_cast<std::size_t>(g.numNodes());

    // --- Expansion preparation (Section 2.3.1) ------------------
    // Ghost rows are empty in the fragment CSR, so their degree —
    // and contribution — is zero: every edge is expanded by the
    // device owning its source.
    for (std::size_t u = 0; u < n; ++u) {
        const std::uint32_t deg = gb.offsets[u + 1] - gb.offsets[u];
        counts[u] = deg;
        indexes[u] = gb.offsets[u];
        contribBits[u] =
            deg ? asBits(asFloat(rankBits[u]) /
                         static_cast<float>(deg))
                : asBits(0.0f);
    }
    gpuWarpKernel(
        sys, "pr_prepare", gpu::Phase::Processing, n,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(rankBits));
            w.load(4, elemAt(gb.offsets));
            w.load(4, [&](std::uint64_t t) {
                return gb.offsets.addrOf(t + 1);
            });
            w.compute(16);
            w.store(4, elemAt(contribBits));
            w.store(4, elemAt(counts));
            w.store(4, elemAt(indexes));
        },
        dev);
    m.rawExpanded += g.numEdges();

    // --- Expansion ----------------------------------------------
    std::size_t ef_n = 0;
    if (!use_scu) {
        ExpandOutput oe{
            &edgeFrontier, 1,
            [&](std::size_t i, std::uint32_t j,
                Addr *addrs) -> std::uint32_t {
                const std::uint32_t e = indexes[i] + j;
                addrs[0] = gb.edges.addrOf(e);
                return gb.edges[e];
            }};
        ExpandOutput ow{
            &weightFrontier, 1,
            [&](std::size_t i, std::uint32_t,
                Addr *addrs) -> std::uint32_t {
                addrs[0] = contribBits.addrOf(i);
                return contribBits[i];
            }};
        std::array<ExpandOutput, 2> outs{oe, ow};
        ef_n = gpuExpand(sys, counts, n, outs, scratch,
                         "pr_expand", dev);
    } else {
        auto &scu = sys.scuDevice(dev);
        sys.scuSection(dev, [&] {
            // Algorithm 3: edge frontier + replicated,
            // pre-divided ranks.
            scu.accessExpansionCompaction(
                gb.edges, indexes, counts, n, nullptr,
                edgeFrontier, ef_n);
            std::size_t wn = 0;
            scu.replicationCompaction(contribBits, counts, n,
                                      nullptr, weightFrontier,
                                      wn);
            panic_if(wn != ef_n, "PR frontier streams diverged");
        });
    }
    m.gpuEdgeWork += ef_n;

    // --- Rank update (Section 2.3.2): atomicAdd per edge ---------
    for (std::size_t t = 0; t < ef_n; ++t) {
        const NodeId v = edgeFrontier[t];
        newRankBits[v] = asBits(asFloat(newRankBits[v]) +
                                asFloat(weightFrontier[t]));
    }
    gpuWarpKernel(
        sys, "pr_rank_update", gpu::Phase::Processing, ef_n,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(edgeFrontier));
            w.load(4, elemAt(weightFrontier));
            w.compute(12);
            w.atomic(4, elemAt(newRankBits, edgeFrontier));
        },
        dev);

    // --- Ghost flush: forward remote contributions ---------------
    if (frag && frag->numOuter > 0 && outbox) {
        for (NodeId l = frag->numInner; l < frag->numLocal(); ++l) {
            const std::uint32_t bits = newRankBits[l];
            if (asFloat(bits) != 0.0f) {
                outbox->push_back(
                    BoundaryMsg{frag->toGlobal[l], bits});
                newRankBits[l] = asBits(0.0f);
            }
        }
        gpuWarpKernel(
            sys, "pr_ghost_flush", gpu::Phase::Processing,
            frag->numOuter,
            [&](gpu::WarpBuilder &w) {
                const auto ghost = [&](std::uint64_t t) {
                    return newRankBits.addrOf(frag->numInner + t);
                };
                w.load(4, ghost);
                w.compute(6);
                w.store(4, ghost);
            },
            dev);
    }
}

void
PageRankRunner::acceptRemote(std::span<const BoundaryMsg> msgs)
{
    if (msgs.empty())
        return;
    panic_if(!frag, "acceptRemote on a non-sharded PR runner");

    std::size_t t = 0;
    for (const BoundaryMsg &msg : msgs) {
        const NodeId l = part->localOf(msg.node);
        inbox[t % inbox.size()] = msg.node;
        ++t;
        newRankBits[l] = asBits(asFloat(newRankBits[l]) +
                                asFloat(msg.value));
    }
    gpuWarpKernel(
        sys, "pr_inject_remote", gpu::Phase::Processing, msgs.size(),
        [&](gpu::WarpBuilder &w) {
            w.load(8, [&](std::uint64_t i) {
                return inbox.addrOf(i % inbox.size());
            });
            w.compute(8);
            w.atomic(4, [&](std::uint64_t i) {
                return newRankBits.addrOf(part->localOf(msgs[i].node));
            });
        },
        dev);
}

float
PageRankRunner::dampen()
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    const std::size_t lim =
        frag ? static_cast<std::size_t>(frag->numInner) : n;

    // --- Dampening + convergence check (2.3.3 / 2.3.4) -----------
    float max_delta = 0.0f;
    for (std::size_t u = 0; u < lim; ++u) {
        const float next =
            dampening + (1.0f - dampening) * asFloat(newRankBits[u]);
        max_delta = std::max(
            max_delta, std::fabs(next - asFloat(rankBits[u])));
        rankBits[u] = asBits(next);
        newRankBits[u] = asBits(0.0f);
    }
    gpuWarpKernel(
        sys, "pr_dampen", gpu::Phase::Processing, lim,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(newRankBits));
            w.load(4, elemAt(rankBits));
            w.compute(12);
            w.store(4, elemAt(rankBits));
            w.store(4, elemAt(newRankBits));
        },
        dev);
    // The convergence reduction is fused into the dampening
    // pass above (one extra compare per node plus a per-block
    // reduction, charged as compute).
    return max_delta;
}

void
PageRankRunner::collect(std::vector<float> &ranks) const
{
    panic_if(!frag, "collect on a non-sharded PR runner");
    for (NodeId l = 0; l < frag->numInner; ++l)
        ranks[frag->toGlobal[l]] = asFloat(rankBits[l]);
}

PrResult
PageRankRunner::run(const AlgOptions &opt)
{
    PrResult res;
    const auto n = static_cast<std::size_t>(g.numNodes());
    beginRun(opt);

    for (unsigned it = 0; it < opt.prMaxIterations; ++it) {
        ++res.metrics.iterations;
        iterate(res.metrics, nullptr);
        const float max_delta = dampen();
        if (max_delta < static_cast<float>(opt.prEpsilon)) {
            res.converged = true;
            break;
        }
    }

    res.ranks.resize(n);
    for (std::size_t u = 0; u < n; ++u)
        res.ranks[u] = asFloat(rankBits[u]);
    return res;
}

} // namespace scusim::alg
