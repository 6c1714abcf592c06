#include "alg/bfs.hh"

#include <algorithm>
#include <deque>

#include "common/logging.hh"

namespace scusim::alg
{

BfsRunner::BfsRunner(harness::System &s, const graph::CsrGraph &graph)
    : BfsRunner(s, 0, graph, nullptr)
{
}

BfsRunner::BfsRunner(harness::System &s, DeviceId d,
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

    dist.allocate(as, "bfs_dist", n);
    visitedBits.allocate(as, "bfs_visited_bits", n / 32 + 1);
    nodeFrontier.allocate(as, "bfs_node_frontier", ef_cap);
    edgeFrontier.allocate(as, "bfs_edge_frontier", ef_cap);
    counts.allocate(as, "bfs_counts", ef_cap);
    indexes.allocate(as, "bfs_indexes", ef_cap);
    flags.allocate(as, "bfs_flags", ef_cap);
    // Remote-injection staging exists only for true multi-fragment
    // runs so single-fragment address spaces stay byte-identical to
    // the historical single-device layout.
    if (part && part->numFragments() > 1)
        inbox.allocate(as, "bfs_inbox", ef_cap);
    visited.assign(n, 0);

    // Best-effort bitmask visibility: marks made by warps racing in
    // flight are not observed. The window covers a few warps per SM
    // (stores commit within hundreds of cycles, and Merrill's warp
    // culling removes same-warp duplicates), so it is far narrower
    // than the full thread complement.
    raceWindow = std::max<std::size_t>(
        64, sys.config().gpu.numSms * 2 *
                sys.config().gpu.warpSize);
    cullTable.assign(4096, invalidNode);
}

void
BfsRunner::prepare(std::size_t nf_n)
{
    for (std::size_t t = 0; t < nf_n; ++t) {
        const NodeId u = nodeFrontier[t];
        counts[t] = gb.offsets[u + 1] - gb.offsets[u];
        indexes[t] = gb.offsets[u];
    }
    gpuWarpKernel(
        sys, "bfs_prepare", gpu::Phase::Processing, nf_n,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(nodeFrontier));
            w.load(4, elemAt(gb.offsets, nodeFrontier));
            w.load(4, elemAt(gb.offsets, nodeFrontier, 1));
            w.compute(14);
            w.store(4, elemAt(counts));
            w.store(4, elemAt(indexes));
        },
        dev);
}

void
BfsRunner::contractLookup(std::size_t ef_n, std::uint32_t level)
{
    // Functional pass with the best-effort visibility window: a mark
    // becomes visible raceWindow elements after it was made, so
    // duplicates racing in flight produce false negatives, exactly
    // the trade-off of the bitmask of Section 2.1.2.
    // The warp/history culling hash (Merrill) catches most hub
    // duplicates that race past the bitmask: a small direct-mapped
    // table of recently seen nodes, reset each pass, with collisions
    // evicting (so culling stays incomplete — the headroom the SCU
    // filter exploits).
    std::fill(cullTable.begin(), cullTable.end(), invalidNode);
    std::deque<std::pair<std::size_t, NodeId>> pending;
    for (std::size_t t = 0; t < ef_n; ++t) {
        while (!pending.empty() &&
               pending.front().first + raceWindow <= t) {
            visited[pending.front().second] = 1;
            pending.pop_front();
        }
        const NodeId v = edgeFrontier[t];
        const std::size_t h =
            static_cast<std::size_t>(v) % cullTable.size();
        if (visited[v] || cullTable[h] == v) {
            flags[t] = 0;
        } else {
            cullTable[h] = v;
            flags[t] = 1;
            dist[v] = level;
            pending.emplace_back(t, v);
        }
    }
    for (auto &[pos, v] : pending)
        visited[v] = 1;

    // Timing kernel: the status-lookup contraction of Section 2.1.2.
    const auto bitsOf = [&](std::uint64_t t) {
        return visitedBits.addrOf(edgeFrontier[t] / 32);
    };
    gpuWarpKernel(
        sys, "bfs_contract_lookup", gpu::Phase::Processing, ef_n,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(edgeFrontier));
            w.load(4, bitsOf);
            w.compute(24);
            w.store(1, elemAt(flags));
            w.keepIf([&](std::uint64_t t) { return flags[t] != 0; });
            w.store(4, elemAt(dist, edgeFrontier));
            w.store(4, bitsOf);
        },
        dev);
}

void
BfsRunner::beginRun(const AlgOptions &opt)
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    if (!frag) {
        fatal_if(opt.source >= g.numNodes(),
                 "BFS source out of range");
    } else {
        fatal_if(opt.source >= part->numNodes(),
                 "BFS source out of range");
    }

    // Initialization kernel: dist <- inf, visited <- 0 (memset-like
    // streaming stores).
    std::ranges::fill(dist.host(), infDist);
    std::fill(visited.begin(), visited.end(), 0);
    gpuWarpKernel(
        sys, "bfs_init", gpu::Phase::Processing, n,
        [&](gpu::WarpBuilder &w) {
            w.compute(2);
            w.store(4, elemAt(dist));
            w.keepIf([](std::uint64_t t) { return t % 32 == 0; });
            w.store(4, [&](std::uint64_t t) {
                return visitedBits.addrOf(t / 32);
            });
        },
        dev);

    use_scu = opt.mode != harness::ScuMode::GpuOnly;
    enhanced = opt.mode == harness::ScuMode::ScuEnhanced;
    if (use_scu)
        sys.scuDevice(dev).resetFilterTables();

    nf_n = 0;
    const bool owned =
        !frag || part->ownerOf(opt.source) == frag->device;
    if (owned) {
        const NodeId src =
            frag ? part->localOf(opt.source) : opt.source;
        nodeFrontier[0] = src;
        visited[src] = 1;
        dist[src] = 0;
        nf_n = 1;
    }
}

void
BfsRunner::runLevel(std::uint32_t level, AlgMetrics &m,
                    std::vector<BoundaryMsg> *outbox)
{
    // --- Expansion ---------------------------------------------
    prepare(nf_n);
    std::uint64_t produced = 0;
    for (std::size_t i = 0; i < nf_n; ++i)
        produced += counts[i];
    m.rawExpanded += produced;
    panic_if(produced > edgeFrontier.size(),
             "edge frontier overflow (%llu > %zu)",
             static_cast<unsigned long long>(produced),
             edgeFrontier.size());

    std::size_t ef_n = 0;
    if (!use_scu) {
        ExpandOutput out{
            &edgeFrontier, 1,
            [&](std::size_t i, std::uint32_t j,
                Addr *addrs) -> std::uint32_t {
                const std::uint32_t e = indexes[i] + j;
                addrs[0] = gb.edges.addrOf(e);
                return gb.edges[e];
            }};
        ef_n = gpuExpand(sys, counts, nf_n, {&out, 1}, scratch,
                         "bfs_expand", dev);
    } else {
        auto &scu = sys.scuDevice(dev);
        sys.scuSection(dev, [&] {
            if (enhanced) {
                // Step 1 (Algorithm 4): generate the filter
                // vector with an extra expansion pass. The hash
                // is reconfigured (reset) per operation so the
                // single Table 2-sized region stays L2-resident;
                // it removes the intra-frontier duplicates, and
                // the GPU bitmask handles nodes visited in
                // earlier iterations.
                scu.uniqueFilter().reset();
                std::vector<std::uint8_t> keep;
                scu::OpOptions o1;
                o1.writeOutput = false;
                o1.filterMode = scu::FilterMode::Unique;
                o1.keepOut = &keep;
                std::size_t ignore = 0;
                auto st1 = scu.accessExpansionCompaction(
                    gb.edges, indexes, counts, nf_n, nullptr,
                    edgeFrontier, ignore, o1);
                m.scuFiltered += st1.filtered;
                // Step 2: the filtered edge frontier.
                scu::OpOptions o2;
                o2.keep = &keep;
                scu.accessExpansionCompaction(
                    gb.edges, indexes, counts, nf_n, nullptr,
                    edgeFrontier, ef_n, o2);
            } else {
                scu.accessExpansionCompaction(
                    gb.edges, indexes, counts, nf_n, nullptr,
                    edgeFrontier, ef_n);
            }
        });
    }

    // --- Contraction -------------------------------------------
    m.gpuEdgeWork += ef_n;
    contractLookup(ef_n, level);

    std::size_t next_nf = 0;
    if (!use_scu) {
        CompactStream s{&edgeFrontier, &nodeFrontier};
        gpuCompact(sys, {&s, 1}, flags, ef_n, next_nf, scratch,
                   "bfs_contract_compact", dev);
    } else {
        auto &scu = sys.scuDevice(dev);
        sys.scuSection(dev, [&] {
            if (enhanced) {
                // Duplicates that slipped through the expansion
                // filter (hash collisions) and bitmask races are
                // removed before they re-enter the frontier.
                scu.uniqueFilter().reset();
                std::vector<std::uint8_t> keep;
                scu::OpOptions o1;
                o1.writeOutput = false;
                o1.filterMode = scu::FilterMode::Unique;
                o1.keepOut = &keep;
                std::size_t ignore = 0;
                auto st1 = scu.dataCompaction(
                    edgeFrontier, ef_n, &flags, nodeFrontier,
                    ignore, o1);
                m.scuFiltered += st1.filtered;
                scu::OpOptions o2;
                o2.keep = &keep;
                scu.dataCompaction(edgeFrontier, ef_n, &flags,
                                   nodeFrontier, next_nf, o2);
            } else {
                scu.dataCompaction(edgeFrontier, ef_n, &flags,
                                   nodeFrontier, next_nf);
            }
        });
    }
    nf_n = next_nf;

    if (frag && frag->numOuter > 0 && outbox && nf_n > 0)
        splitBoundary(*outbox);
}

void
BfsRunner::splitBoundary(std::vector<BoundaryMsg> &outbox)
{
    const std::size_t old_n = nf_n;
    std::size_t kept = 0;
    for (std::size_t t = 0; t < old_n; ++t) {
        const NodeId v = nodeFrontier[t];
        if (frag->isInner(v)) {
            nodeFrontier[kept++] = v;
        } else {
            outbox.push_back(
                BoundaryMsg{frag->toGlobal[v], dist[v]});
        }
    }
    nf_n = kept;

    // Timing: one pass over the new frontier comparing each entry
    // against the inner-vertex bound, repacking survivors.
    gpuWarpKernel(
        sys, "bfs_boundary_split", gpu::Phase::Processing, old_n,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(nodeFrontier));
            w.compute(8);
            w.store(4, elemAt(nodeFrontier));
        },
        dev);
}

void
BfsRunner::acceptRemote(std::span<const BoundaryMsg> msgs,
                        std::uint32_t level)
{
    if (msgs.empty())
        return;
    panic_if(!frag, "acceptRemote on a non-sharded BFS runner");

    std::size_t t = 0;
    for (const BoundaryMsg &msg : msgs) {
        const NodeId l = part->localOf(msg.node);
        inbox[t % inbox.size()] = msg.node;
        ++t;
        if (visited[l])
            continue;
        visited[l] = 1;
        dist[l] = msg.value;
        panic_if(nf_n >= nodeFrontier.size(),
                 "node frontier overflow on remote inject");
        nodeFrontier[nf_n++] = l;
    }
    (void)level;

    // Timing: one thread per message — load it, probe the bitmask,
    // conditionally append to the frontier.
    const auto bitsOf = [&](std::uint64_t i) {
        return visitedBits.addrOf(part->localOf(msgs[i].node) / 32);
    };
    gpuWarpKernel(
        sys, "bfs_inject_remote", gpu::Phase::Processing, msgs.size(),
        [&](gpu::WarpBuilder &w) {
            w.load(8, [&](std::uint64_t i) {
                return inbox.addrOf(i % inbox.size());
            });
            w.load(4, bitsOf);
            w.compute(12);
            w.store(4, [&](std::uint64_t i) {
                return dist.addrOf(part->localOf(msgs[i].node));
            });
            w.store(4, bitsOf);
        },
        dev);
}

void
BfsRunner::collect(std::vector<std::uint32_t> &globalDist) const
{
    panic_if(!frag, "collect on a non-sharded BFS runner");
    for (NodeId l = 0; l < frag->numInner; ++l)
        globalDist[frag->toGlobal[l]] = dist[l];
}

BfsResult
BfsRunner::run(const AlgOptions &opt)
{
    BfsResult res;
    beginRun(opt);

    std::uint32_t level = 0;
    while (nf_n > 0 && level < opt.maxIterations) {
        ++level;
        ++res.metrics.iterations;
        runLevel(level, res.metrics, nullptr);
    }

    res.dist.assign(dist.host().begin(), dist.host().end());
    return res;
}

} // namespace scusim::alg
