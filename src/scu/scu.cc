#include "scu/scu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace.hh"
#include "sim/simulation.hh"

namespace scusim::scu
{

namespace
{

/** Scratch metadata regions (filter bitmask / grouping order). */
constexpr std::uint64_t keepRegionBytes = 32ULL << 20;
constexpr std::uint64_t orderRegionBytes = 128ULL << 20;

bool
compare(std::uint32_t v, CompareOp op, std::uint32_t ref)
{
    switch (op) {
      case CompareOp::Eq:
        return v == ref;
      case CompareOp::Ne:
        return v != ref;
      case CompareOp::Lt:
        return v < ref;
      case CompareOp::Le:
        return v <= ref;
      case CompareOp::Gt:
        return v > ref;
      case CompareOp::Ge:
        return v >= ref;
    }
    panic("bad CompareOp");
}

} // namespace

Scu::Scu(const ScuParams &params, mem::MemSystem &mem,
         sim::Simulation &simulation, mem::AddressSpace &as,
         stats::StatGroup *parent)
    : p(params), memSys(mem), sim(simulation),
      uniqueTable(std::make_unique<UniqueFilterTable>(
          p.filterBfsHash, as)),
      uniqueTable2(std::make_unique<UniqueFilterTable>(
          p.filterBfsHash, as, "scu_hash_bfs2")),
      costTable(std::make_unique<BestCostFilterTable>(
          p.filterSsspHash, as)),
      groupTable(std::make_unique<GroupingTable>(
          p.groupHash, p.groupSize, as)),
      grp(p.name, parent),
      opsExecuted(&grp, "ops", "SCU operations executed"),
      elementsProcessed(&grp, "elements", "pipeline element slots"),
      duplicatesFiltered(&grp, "filtered",
                         "duplicates removed by filtering"),
      busyCycles(&grp, "busy_cycles", "cycles the SCU was active")
{
    metaKeepBase = as.alloc("scu_meta_keep", keepRegionBytes);
    metaOrderBase = as.alloc("scu_meta_order", orderRegionBytes);
}

void
Scu::resetFilterTables()
{
    uniqueTable->reset();
    uniqueTable2->reset();
    costTable->reset();
    groupTable->reset();
}

void
Scu::attachTrace(trace::TraceSink &sink, const std::string &prefix)
{
    traceChan = sink.channel(prefix + "scu");
}

void
Scu::sealOp(const char *op, ScuPipeline &pipe, ScuOpStats &st)
{
    st.end = pipe.finish();
    sim.advanceTo(st.end);

    const auto &t = pipe.counters();
    st.readTxns = t.readTxns;
    st.writeTxns = t.writeTxns;

    TRACE_EVENT_SPAN(traceChan, trace::Category::ScuOp, op, st.start,
                     st.end, t.elements);
    TRACE_EVENT_COUNTER(traceChan, trace::Category::Fifo,
                        "inflight_reads_peak", st.end, t.maxInflight);

    ++agg.ops;
    agg.elements += t.elements;
    agg.readTxns += t.readTxns;
    agg.writeTxns += t.writeTxns;
    agg.hashReadTxns += t.hashReadTxns;
    agg.hashWriteTxns += t.hashWriteTxns;
    agg.filtered += st.filtered;
    agg.busyCycles += st.cycles();

    ++opsExecuted;
    elementsProcessed += static_cast<double>(t.elements);
    duplicatesFiltered += static_cast<double>(st.filtered);
    busyCycles += static_cast<double>(st.cycles());
}

void
Scu::emitStream(const std::vector<std::uint32_t> &produced,
                const OpOptions &opt, Elems &out, std::size_t &out_n,
                ScuPipeline &pipe, ScuOpStats &st)
{
    const std::size_t n = produced.size();

    // --- Step-1 metadata generation -----------------------------
    if (opt.filterMode != FilterMode::None) {
        panic_if(!opt.keepOut,
                 "filtering requested without a keepOut sink");
        panic_if(opt.filterMode == FilterMode::BestCost &&
                     opt.costs.size() < n,
                 "BestCost filtering needs a cost per element "
                 "(%zu < %zu)", opt.costs.size(), n);
        // Reconfiguring the hash for this operation (Section 4.1)
        // pins its region in the L2 (way-locking) so streaming
        // traffic cannot thrash it — the Table 2 sizes are chosen to
        // fit the L2 for exactly this reason.
        UniqueFilterTable *unique = nullptr;
        if (opt.filterMode == FilterMode::Unique) {
            unique = opt.useSecondaryUnique ? uniqueTable2.get()
                                            : uniqueTable.get();
            memSys.l2().setProtectedRegion(unique->baseAddr(),
                                           unique->config().sizeBytes);
        } else {
            memSys.l2().setProtectedRegion(
                costTable->baseAddr(),
                costTable->config().sizeBytes);
        }
        const HashConfig &hash =
            unique ? p.filterBfsHash : p.filterSsspHash;
        const unsigned set_bytes =
            std::min(128u, hash.ways * hash.entryBytes);
        opt.keepOut->assign(n, 1);
        for (std::size_t k = 0; k < n; ++k) {
            ProbeTraffic traffic;
            const bool keep =
                unique ? unique->probe(produced[k], traffic)
                       : costTable->probe(produced[k], opt.costs[k],
                                          traffic);
            pipe.hashAccess(traffic.setAddr, traffic.wrote,
                            set_bytes);
            ++st.hashProbes;
            if (!keep) {
                (*opt.keepOut)[k] = 0;
                ++st.filtered;
            }
            // The generated bitmask streams out to memory.
            pipe.seqWrite(metaKeepBase + (k % keepRegionBytes), 1);
        }
    }

    if (opt.makeGroups) {
        panic_if(!opt.orderOut,
                 "grouping requested without an orderOut sink");
        opt.orderOut->clear();
        opt.orderOut->reserve(n);
        memSys.l2().setProtectedRegion(
            groupTable->baseAddr(), groupTable->config().sizeBytes);
        const std::uint64_t per_line = nodesPerLine();
        const unsigned set_bytes =
            std::min(128u, p.groupHash.ways * p.groupHash.entryBytes);
        for (std::size_t k = 0; k < n; ++k) {
            ProbeTraffic traffic;
            groupTable->probe(produced[k] / per_line,
                              static_cast<std::uint32_t>(k),
                              *opt.orderOut, traffic);
            pipe.hashAccess(traffic.setAddr, traffic.wrote, set_bytes);
            ++st.hashProbes;
            pipe.seqWrite(
                metaOrderBase + (4 * k) % orderRegionBytes, 4);
        }
        groupTable->flush(*opt.orderOut);
        panic_if(opt.orderOut->size() != n,
                 "grouping lost elements (%zu != %zu)",
                 opt.orderOut->size(), n);
    }

    // --- Step-2 (or basic) output --------------------------------
    if (!opt.writeOutput) {
        st.elemsOut = 0;
        return;
    }

    auto emit = [&](std::size_t k) {
        if (opt.keep) {
            // Step 2 reads the previously generated bitmask.
            pipe.seqRead(Stream::Bitmask,
                         metaKeepBase + (k % keepRegionBytes), 1);
            if (!(*opt.keep)[k])
                return;
        }
        panic_if(out_n >= out.size(),
                 "SCU output overflow (%zu elements)", out.size());
        out[out_n] = produced[k];
        pipe.seqWrite(out.addrOf(out_n), 4);
        ++out_n;
        ++st.elemsOut;
    };

    if (opt.order) {
        panic_if(opt.order->size() != n,
                 "order vector size mismatch (%zu != %zu)",
                 opt.order->size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            // Step 2 reads the order vector sequentially.
            pipe.seqRead(Stream::Order,
                         metaOrderBase + (4 * i) % orderRegionBytes,
                         4);
            emit((*opt.order)[i]);
        }
    } else {
        for (std::size_t k = 0; k < n; ++k)
            emit(k);
    }
}

ScuOpStats
Scu::bitmaskConstructor(const Elems &in, std::size_t n, CompareOp op,
                        std::uint32_t ref, Flags &out)
{
    panic_if(out.size() < n, "bitmask output too small");
    ScuOpStats st;
    st.start = sim.now();
    ScuPipeline pipe(p, memSys, readWindow, st.start);
    st.elemsIn = n;
    for (std::size_t i = 0; i < n; ++i) {
        pipe.elements(1);
        pipe.seqRead(Stream::Data, in.addrOf(i), 4);
        out[i] = compare(in[i], op, ref) ? 1 : 0;
        pipe.seqWrite(out.addrOf(i), 1);
        ++st.elemsOut;
    }
    sealOp("bitmask-constructor", pipe, st);
    return st;
}

ScuOpStats
Scu::dataCompaction(const Elems &in, std::size_t n, const Flags *mask,
                    Elems &out, std::size_t &out_n,
                    const OpOptions &opt)
{
    ScuOpStats st;
    st.start = sim.now();
    ScuPipeline pipe(p, memSys, readWindow, st.start);
    st.elemsIn = n;

    std::vector<std::uint32_t> produced;
    produced.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pipe.elements(1);
        pipe.seqRead(Stream::Data, in.addrOf(i), 4);
        if (mask) {
            pipe.seqRead(Stream::Bitmask, mask->addrOf(i), 1);
            if (!(*mask)[i])
                continue;
        }
        produced.push_back(in[i]);
    }
    emitStream(produced, opt, out, out_n, pipe, st);
    sealOp("data-compaction", pipe, st);
    return st;
}

ScuOpStats
Scu::accessCompaction(const Elems &data, const Elems &indexes,
                      std::size_t n, const Flags *mask, Elems &out,
                      std::size_t &out_n, const OpOptions &opt)
{
    ScuOpStats st;
    st.start = sim.now();
    ScuPipeline pipe(p, memSys, readWindow, st.start);
    st.elemsIn = n;

    std::vector<std::uint32_t> produced;
    produced.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pipe.elements(1);
        pipe.seqRead(Stream::Indexes, indexes.addrOf(i), 4);
        if (mask) {
            pipe.seqRead(Stream::Bitmask, mask->addrOf(i), 1);
            if (!(*mask)[i])
                continue;
        }
        const std::uint32_t idx = indexes[i];
        panic_if(idx >= data.size(),
                 "access compaction index out of range");
        pipe.gatherRead(data.addrOf(idx), 4);
        produced.push_back(data[idx]);
    }
    emitStream(produced, opt, out, out_n, pipe, st);
    sealOp("access-compaction", pipe, st);
    return st;
}

ScuOpStats
Scu::replicationCompaction(const Elems &in, const Elems &count,
                           std::size_t n, const Flags *mask,
                           Elems &out, std::size_t &out_n,
                           const OpOptions &opt)
{
    ScuOpStats st;
    st.start = sim.now();
    ScuPipeline pipe(p, memSys, readWindow, st.start);
    st.elemsIn = n;

    std::vector<std::uint32_t> produced;
    for (std::size_t i = 0; i < n; ++i) {
        pipe.seqRead(Stream::Data, in.addrOf(i), 4);
        pipe.seqRead(Stream::Count, count.addrOf(i), 4);
        if (mask) {
            pipe.seqRead(Stream::Bitmask, mask->addrOf(i), 1);
            if (!(*mask)[i]) {
                pipe.elements(1);
                continue;
            }
        }
        const std::uint32_t c = count[i];
        pipe.elements(std::max<std::uint32_t>(1, c));
        for (std::uint32_t j = 0; j < c; ++j)
            produced.push_back(in[i]);
    }
    emitStream(produced, opt, out, out_n, pipe, st);
    sealOp("replication-compaction", pipe, st);
    return st;
}

ScuOpStats
Scu::accessExpansionCompaction(const Elems &data, const Elems &indexes,
                               const Elems &count, std::size_t n,
                               const Flags *mask, Elems &out,
                               std::size_t &out_n,
                               const OpOptions &opt)
{
    ScuOpStats st;
    st.start = sim.now();
    ScuPipeline pipe(p, memSys, readWindow, st.start);
    st.elemsIn = n;

    std::vector<std::uint32_t> produced;
    for (std::size_t i = 0; i < n; ++i) {
        pipe.seqRead(Stream::Indexes, indexes.addrOf(i), 4);
        pipe.seqRead(Stream::Count, count.addrOf(i), 4);
        if (mask) {
            pipe.seqRead(Stream::Bitmask, mask->addrOf(i), 1);
            if (!(*mask)[i]) {
                pipe.elements(1);
                continue;
            }
        }
        const std::uint32_t first = indexes[i];
        const std::uint32_t c = count[i];
        panic_if(static_cast<std::uint64_t>(first) + c > data.size(),
                 "access expansion range out of bounds");
        pipe.elements(std::max<std::uint32_t>(1, c));
        for (std::uint32_t j = 0; j < c; ++j) {
            // Within one node's run the reads are consecutive, so
            // the coalescing unit merges them line by line.
            pipe.gatherRead(data.addrOf(first + j), 4);
            produced.push_back(data[first + j]);
        }
    }
    emitStream(produced, opt, out, out_n, pipe, st);
    sealOp("access-expansion-compaction", pipe, st);
    return st;
}

} // namespace scusim::scu
