#include "alg/sssp.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace scusim::alg
{

namespace
{

/**
 * Keep, per node, only the last improving entry (the one with the
 * best cost, since successive improvements are strictly decreasing).
 * This is the lookup-table deduplication of Section 2.2.2: complete,
 * unlike BFS's best-effort bitmask.
 */
class WinnerDedup
{
  public:
    explicit WinnerDedup(std::size_t n)
        : epoch(n, 0), winner(n, 0), cur(0) {}

    void
    begin()
    {
        ++cur;
    }

    void
    offer(NodeId v, std::size_t t)
    {
        epoch[v] = cur;
        winner[v] = t;
    }

    bool
    isWinner(NodeId v, std::size_t t) const
    {
        return epoch[v] == cur && winner[v] == t;
    }

  private:
    std::vector<std::uint32_t> epoch;
    std::vector<std::size_t> winner;
    std::uint32_t cur;
};

} // namespace

SsspRunner::SsspRunner(harness::System &s,
                       const graph::CsrGraph &graph)
    : SsspRunner(s, 0, graph, nullptr)
{
}

SsspRunner::SsspRunner(harness::System &s, DeviceId d,
                       const graph::CsrGraph &graph,
                       const graph::GraphPartition *p)
    : sys(s), dev(d), part(p),
      frag(p ? &p->fragment(d) : nullptr), g(graph),
      gb(s.addressSpace(d), graph),
      scratch(s.addressSpace(d),
              static_cast<std::size_t>(graph.numEdges()) * 2 + 1024)
{
    auto &as = sys.addressSpace(dev);
    const auto n = static_cast<std::size_t>(g.numNodes());
    const auto ef_cap =
        static_cast<std::size_t>(g.numEdges()) * 2 + 1024;
    const auto far_cap =
        static_cast<std::size_t>(g.numEdges()) * 3 + 1024;

    dist.allocate(as, "sssp_dist", n);
    nodeFrontier.allocate(as, "sssp_node_frontier", ef_cap);
    edgeFrontier.allocate(as, "sssp_edge_frontier", ef_cap);
    weightFrontier.allocate(as, "sssp_weight_frontier", ef_cap);
    gatherWeights.allocate(as, "sssp_gather_weights", ef_cap);
    replDist.allocate(as, "sssp_repl_dist", ef_cap);
    srcDist.allocate(as, "sssp_src_dist", ef_cap);
    counts.allocate(as, "sssp_counts", ef_cap);
    indexes.allocate(as, "sssp_indexes", ef_cap);
    farEdges[0].allocate(as, "sssp_far_edges_a", far_cap);
    farEdges[1].allocate(as, "sssp_far_edges_b", far_cap);
    farWeights[0].allocate(as, "sssp_far_weights_a", far_cap);
    farWeights[1].allocate(as, "sssp_far_weights_b", far_cap);
    lookupTable.allocate(as, "sssp_lookup_table", n);
    nearFlags.allocate(as, "sssp_near_flags", far_cap);
    farFlags.allocate(as, "sssp_far_flags", far_cap);
    if (part && part->numFragments() > 1)
        inbox.allocate(as, "sssp_inbox", ef_cap);
}

void
SsspRunner::prepare(std::size_t nf_n)
{
    for (std::size_t t = 0; t < nf_n; ++t) {
        const NodeId u = nodeFrontier[t];
        counts[t] = gb.offsets[u + 1] - gb.offsets[u];
        indexes[t] = gb.offsets[u];
        srcDist[t] = dist[u];
    }
    gpuWarpKernel(
        sys, "sssp_prepare", gpu::Phase::Processing, nf_n,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(nodeFrontier));
            w.load(4, elemAt(gb.offsets, nodeFrontier));
            w.load(4, elemAt(gb.offsets, nodeFrontier, 1));
            w.load(4, elemAt(dist, nodeFrontier));
            w.compute(16);
            w.store(4, elemAt(counts));
            w.store(4, elemAt(indexes));
            w.store(4, elemAt(srcDist));
        },
        dev);
}

void
SsspRunner::contract(std::size_t ef_n, AlgMetrics &m,
                     std::vector<BoundaryMsg> *outbox)
{
    m.gpuEdgeWork += ef_n;

    // Functional relaxation sweep (deterministic atomicMin order).
    // Ghost targets never enter the local piles: an improving
    // relaxation updates the ghost's best-cost cache and is
    // forwarded to the owner at the next exchange barrier.
    WinnerDedup local(g.numNodes());
    local.begin();
    for (std::size_t t = 0; t < ef_n; ++t) {
        const NodeId v = edgeFrontier[t];
        const std::uint32_t w = weightFrontier[t];
        const bool improved = w < dist[v];
        if (improved)
            dist[v] = w;
        if (frag && !frag->isInner(v)) {
            nearFlags[t] = 0;
            farFlags[t] = 0;
            if (improved && outbox)
                outbox->push_back(
                    BoundaryMsg{frag->toGlobal[v], w});
            continue;
        }
        nearFlags[t] = (improved && w <= threshold) ? 1 : 0;
        farFlags[t] = (improved && w > threshold) ? 1 : 0;
        if (nearFlags[t])
            local.offer(v, t);
    }
    // Complete near deduplication (lookup table): only the winning
    // (best-cost) entry of each node stays in the node frontier.
    for (std::size_t t = 0; t < ef_n; ++t) {
        if (nearFlags[t] &&
            !local.isWinner(edgeFrontier[t], t))
            nearFlags[t] = 0;
    }

    // Per-lane body: the atomic only improving lanes take sits before
    // two stores every lane takes, so the merged order depends on
    // whether the leader lane takes it (gpu/kernel.hh).
    gpuStreamKernel(
        sys, "sssp_contract", gpu::Phase::Processing, ef_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(edgeFrontier.addrOf(t), 4);
            rec.load(weightFrontier.addrOf(t), 4);
            const NodeId v = edgeFrontier[t];
            rec.load(dist.addrOf(v), 4);
            rec.compute(24);
            // Lookup-table deduplication: write thread id, re-read
            // after the synchronization point.
            rec.store(lookupTable.addrOf(v), 4);
            rec.load(lookupTable.addrOf(v), 4);
            rec.compute(2);
            // atomicMin on the distance of improving entries.
            if (nearFlags[t] || farFlags[t])
                rec.atomic(dist.addrOf(v), 4);
            rec.store(nearFlags.addrOf(t), 1);
            rec.store(farFlags.addrOf(t), 1);
        },
        dev);
}

void
SsspRunner::splitFarPile(std::size_t far_n, std::uint32_t threshold,
                         bool gpu_dedup)
{
    Elems &fe = farEdges[farCur];
    Elems &fw = farWeights[farCur];

    WinnerDedup local(g.numNodes());
    local.begin();
    for (std::size_t t = 0; t < far_n; ++t) {
        const NodeId v = fe[t];
        const std::uint32_t w = fw[t];
        // Keep entries that still carry the node's best label
        // (w == dist[v] means this entry set the label and the node
        // still awaits expansion); drop strictly stale ones.
        const bool valid = w <= dist[v];
        nearFlags[t] = (valid && w <= threshold) ? 1 : 0;
        farFlags[t] = (valid && w > threshold) ? 1 : 0;
        if (nearFlags[t])
            local.offer(v, t);
    }
    // With the enhanced SCU the best-cost hash does the
    // deduplication (Section 4.5.2); otherwise the GPU pays for the
    // complete lookup-table pass.
    if (gpu_dedup) {
        for (std::size_t t = 0; t < far_n; ++t) {
            if (nearFlags[t] && !local.isWinner(fe[t], t))
                nearFlags[t] = 0;
        }
    }

    gpuWarpKernel(
        sys, "sssp_far_split", gpu::Phase::Processing, far_n,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(fe));
            w.load(4, elemAt(fw));
            w.load(4, elemAt(dist, fe));
            w.compute(20);
            if (gpu_dedup) {
                w.store(4, elemAt(lookupTable, fe));
                w.load(4, elemAt(lookupTable, fe));
            }
            w.store(1, elemAt(nearFlags));
            w.store(1, elemAt(farFlags));
        },
        dev);
}

void
SsspRunner::beginRun(const AlgOptions &opt)
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    if (!frag) {
        fatal_if(opt.source >= g.numNodes(),
                 "SSSP source out of range");
    } else {
        fatal_if(opt.source >= part->numNodes(),
                 "SSSP source out of range");
    }

    delta = opt.ssspDelta;
    if (delta == 0) {
        double avg = 0;
        for (auto w : g.weightArray())
            avg += w;
        avg = g.numEdges() ? avg / static_cast<double>(g.numEdges())
                           : 1.0;
        delta = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(avg * 4.0));
    }

    std::ranges::fill(dist.host(), infDist);
    gpuWarpKernel(
        sys, "sssp_init", gpu::Phase::Processing, n,
        [&](gpu::WarpBuilder &w) {
            w.compute(2);
            w.store(4, elemAt(dist));
            w.store(4, elemAt(lookupTable));
        },
        dev);

    use_scu = opt.mode != harness::ScuMode::GpuOnly;
    enhanced = opt.mode == harness::ScuMode::ScuEnhanced;
    if (use_scu)
        sys.scuDevice(dev).resetFilterTables();

    nf_n = 0;
    far_n = 0;
    farCur = 0;
    threshold = delta;
    const bool owned =
        !frag || part->ownerOf(opt.source) == frag->device;
    if (owned) {
        const NodeId src =
            frag ? part->localOf(opt.source) : opt.source;
        dist[src] = 0;
        nodeFrontier[0] = src;
        nf_n = 1;
    }
}

std::size_t
SsspRunner::expand(AlgMetrics &m)
{
    const std::size_t cur_nf = nf_n;
    prepare(cur_nf);
    std::uint64_t produced = 0;
    for (std::size_t i = 0; i < cur_nf; ++i)
        produced += counts[i];
    m.rawExpanded += produced;
    panic_if(produced > edgeFrontier.size(),
             "SSSP edge frontier overflow");

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
            &weightFrontier, 2,
            [&](std::size_t i, std::uint32_t j,
                Addr *addrs) -> std::uint32_t {
                const std::uint32_t e = indexes[i] + j;
                addrs[0] = gb.weights.addrOf(e);
                addrs[1] = srcDist.addrOf(i);
                return gb.weights[e] + srcDist[i];
            }};
        std::array<ExpandOutput, 2> outs{oe, ow};
        ef_n = gpuExpand(sys, counts, cur_nf, outs, scratch,
                         "sssp_expand", dev);
    } else {
        auto &scu = sys.scuDevice(dev);
        std::vector<std::uint8_t> keep;
        std::vector<std::uint32_t> order;
        scu::OpOptions step2;

        sys.scuSection(dev, [&] {
            if (enhanced) {
                // Accumulated costs of the would-be edge
                // frontier, for best-cost filtering.
                std::vector<std::uint32_t> costs;
                costs.reserve(produced);
                for (std::size_t i = 0; i < cur_nf; ++i) {
                    for (std::uint32_t j = 0; j < counts[i]; ++j)
                        costs.push_back(
                            srcDist[i] +
                            gb.weights[indexes[i] + j]);
                }
                // The best-cost hash is reset per operation so
                // the Table 2-sized region stays L2-resident; it
                // drops the worse-cost duplicates within the
                // frontier before the GPU sees them.
                scu.costFilter().reset();
                scu::OpOptions f1;
                f1.writeOutput = false;
                f1.filterMode = scu::FilterMode::BestCost;
                f1.keepOut = &keep;
                f1.costs = costs;
                std::size_t ignore = 0;
                auto st1 = scu.accessExpansionCompaction(
                    gb.edges, indexes, counts, cur_nf, nullptr,
                    edgeFrontier, ignore, f1);
                m.scuFiltered += st1.filtered;

                scu.groupingTable().reset();
                scu::OpOptions g1;
                g1.writeOutput = false;
                g1.makeGroups = true;
                g1.orderOut = &order;
                ignore = 0;
                scu.accessExpansionCompaction(
                    gb.edges, indexes, counts, cur_nf, nullptr,
                    edgeFrontier, ignore, g1);

                step2.keep = &keep;
                step2.order = &order;
            }
            // The paper's Algorithm 2: edge frontier, gathered
            // weights and replicated source distances.
            scu.accessExpansionCompaction(
                gb.edges, indexes, counts, cur_nf, nullptr,
                edgeFrontier, ef_n, step2);
            std::size_t wn = 0, rn = 0;
            scu.accessExpansionCompaction(
                gb.weights, indexes, counts, cur_nf, nullptr,
                gatherWeights, wn, step2);
            scu.replicationCompaction(srcDist, counts, cur_nf,
                                      nullptr, replDist, rn,
                                      step2);
            panic_if(wn != ef_n || rn != ef_n,
                     "SSSP frontier streams diverged");
        });

        // GPU combines the two SCU-prepared vectors into the
        // weight (cost) frontier.
        for (std::size_t t = 0; t < ef_n; ++t)
            weightFrontier[t] = gatherWeights[t] + replDist[t];
        gpuWarpKernel(
            sys, "sssp_wf_add", gpu::Phase::Processing, ef_n,
            [&](gpu::WarpBuilder &w) {
                w.load(4, elemAt(gatherWeights));
                w.load(4, elemAt(replDist));
                w.compute(6);
                w.store(4, elemAt(weightFrontier));
            },
            dev);
    }
    return ef_n;
}

void
SsspRunner::nearIteration(AlgMetrics &m,
                          std::vector<BoundaryMsg> *outbox)
{
    const std::size_t ef_n = expand(m);
    contract(ef_n, m, outbox);

    std::size_t next_nf = 0;
    if (!use_scu) {
        CompactStream sn{&edgeFrontier, &nodeFrontier};
        gpuCompact(sys, {&sn, 1}, nearFlags, ef_n, next_nf,
                   scratch, "sssp_near_compact", dev);
        std::array<CompactStream, 2> sf{
            CompactStream{&edgeFrontier, &farEdges[farCur]},
            CompactStream{&weightFrontier,
                          &farWeights[farCur]}};
        gpuCompact(sys, sf, farFlags, ef_n, far_n, scratch,
                   "sssp_far_compact", dev);
    } else {
        auto &scu = sys.scuDevice(dev);
        sys.scuSection(dev, [&] {
            if (enhanced) {
                // Near nodes: grouping only (GPU filtering
                // is already complete, Section 4.5.2).
                scu.groupingTable().reset();
                std::vector<std::uint32_t> order;
                scu::OpOptions g1;
                g1.writeOutput = false;
                g1.makeGroups = true;
                g1.orderOut = &order;
                std::size_t ignore = 0;
                scu.dataCompaction(edgeFrontier, ef_n,
                                   &nearFlags, nodeFrontier,
                                   ignore, g1);
                scu::OpOptions s2;
                s2.order = &order;
                scu.dataCompaction(edgeFrontier, ef_n,
                                   &nearFlags, nodeFrontier,
                                   next_nf, s2);
            } else {
                scu.dataCompaction(edgeFrontier, ef_n,
                                   &nearFlags, nodeFrontier,
                                   next_nf);
            }
            // Far pile: edges and weights land at the same
            // packed positions (Algorithm 2).
            std::size_t fw_n = far_n;
            scu.dataCompaction(edgeFrontier, ef_n, &farFlags,
                               farEdges[farCur], far_n);
            scu.dataCompaction(weightFrontier, ef_n,
                               &farFlags, farWeights[farCur],
                               fw_n);
            panic_if(fw_n != far_n,
                     "far pile streams diverged");
        });
    }
    nf_n = next_nf;
}

void
SsspRunner::farPhase(AlgMetrics &m)
{
    splitFarPile(far_n, threshold, !enhanced);
    m.gpuEdgeWork += far_n;

    std::size_t new_nf = 0;
    std::size_t new_far = 0;
    const unsigned nxt = 1 - farCur;
    if (!use_scu) {
        CompactStream sn{&farEdges[farCur], &nodeFrontier};
        gpuCompact(sys, {&sn, 1}, nearFlags, far_n, new_nf,
                   scratch, "sssp_farphase_near", dev);
        std::array<CompactStream, 2> sf{
            CompactStream{&farEdges[farCur], &farEdges[nxt]},
            CompactStream{&farWeights[farCur], &farWeights[nxt]}};
        gpuCompact(sys, sf, farFlags, far_n, new_far, scratch,
                   "sssp_farphase_far", dev);
    } else {
        auto &scu = sys.scuDevice(dev);
        sys.scuSection(dev, [&] {
            if (enhanced) {
                // Both filtering and grouping apply to the far
                // elements (Section 4.5.2).
                std::vector<std::uint32_t> costs(far_n);
                for (std::size_t t = 0; t < far_n; ++t)
                    costs[t] = farWeights[farCur][t];
                // Costs of the kept (near-flagged) stream only.
                std::vector<std::uint32_t> kept_costs;
                for (std::size_t t = 0; t < far_n; ++t) {
                    if (nearFlags[t])
                        kept_costs.push_back(costs[t]);
                }
                scu.costFilter().reset();
                std::vector<std::uint8_t> keep;
                scu::OpOptions f1;
                f1.writeOutput = false;
                f1.filterMode = scu::FilterMode::BestCost;
                f1.keepOut = &keep;
                f1.costs = kept_costs;
                std::size_t ignore = 0;
                auto st1 = scu.dataCompaction(
                    farEdges[farCur], far_n, &nearFlags,
                    nodeFrontier, ignore, f1);
                m.scuFiltered += st1.filtered;

                scu.groupingTable().reset();
                std::vector<std::uint32_t> order;
                scu::OpOptions g1;
                g1.writeOutput = false;
                g1.makeGroups = true;
                g1.orderOut = &order;
                ignore = 0;
                scu.dataCompaction(farEdges[farCur], far_n,
                                   &nearFlags, nodeFrontier,
                                   ignore, g1);

                scu::OpOptions s2;
                s2.keep = &keep;
                s2.order = &order;
                scu.dataCompaction(farEdges[farCur], far_n,
                                   &nearFlags, nodeFrontier,
                                   new_nf, s2);
            } else {
                scu.dataCompaction(farEdges[farCur], far_n,
                                   &nearFlags, nodeFrontier,
                                   new_nf);
            }
            scu.dataCompaction(farEdges[farCur], far_n,
                               &farFlags, farEdges[nxt],
                               new_far);
            std::size_t w_far = 0;
            scu.dataCompaction(farWeights[farCur], far_n,
                               &farFlags, farWeights[nxt],
                               w_far);
        });
    }
    farCur = nxt;
    far_n = new_far;
    nf_n = new_nf;
}

void
SsspRunner::acceptRemote(std::span<const BoundaryMsg> msgs)
{
    if (msgs.empty())
        return;
    panic_if(!frag, "acceptRemote on a non-sharded SSSP runner");

    std::size_t t = 0;
    for (const BoundaryMsg &msg : msgs) {
        const NodeId l = part->localOf(msg.node);
        inbox[t % inbox.size()] = msg.node;
        ++t;
        if (msg.value >= dist[l])
            continue;
        dist[l] = msg.value;
        if (msg.value <= threshold) {
            panic_if(nf_n >= nodeFrontier.size(),
                     "node frontier overflow on remote inject");
            nodeFrontier[nf_n++] = l;
        } else {
            panic_if(far_n >= farEdges[farCur].size(),
                     "far pile overflow on remote inject");
            farEdges[farCur][far_n] = l;
            farWeights[farCur][far_n] = msg.value;
            ++far_n;
        }
    }

    // Timing: one thread per message — load it, compare against the
    // label, conditionally relax and append.
    const auto distOf = [&](std::uint64_t i) {
        return dist.addrOf(part->localOf(msgs[i].node));
    };
    gpuWarpKernel(
        sys, "sssp_inject_remote", gpu::Phase::Processing,
        msgs.size(),
        [&](gpu::WarpBuilder &w) {
            w.load(8, [&](std::uint64_t i) {
                return inbox.addrOf(i % inbox.size());
            });
            w.load(4, distOf);
            w.compute(14);
            w.atomic(4, distOf);
        },
        dev);
}

void
SsspRunner::collect(std::vector<std::uint32_t> &globalDist) const
{
    panic_if(!frag, "collect on a non-sharded SSSP runner");
    for (NodeId l = 0; l < frag->numInner; ++l)
        globalDist[frag->toGlobal[l]] = dist[l];
}

SsspResult
SsspRunner::run(const AlgOptions &opt)
{
    SsspResult res;
    beginRun(opt);

    unsigned iters = 0;
    while ((nf_n > 0 || far_n > 0) && iters < opt.maxIterations) {
        // ------- Near phase: drain the node frontier -------------
        while (nf_n > 0 && iters < opt.maxIterations) {
            ++iters;
            ++res.metrics.iterations;
            nearIteration(res.metrics, nullptr);
        }

        if (far_n == 0 && nf_n == 0)
            break;

        // ------- Far phase: raise the threshold and re-split -----
        advanceThreshold();
        if (far_n == 0)
            continue;
        farPhase(res.metrics);
    }

    res.dist.assign(dist.host().begin(), dist.host().end());
    return res;
}

} // namespace scusim::alg
