/**
 * @file
 * The Stream Compaction Unit — the paper's core contribution. A
 * small programmable unit attached to the GPU interconnect that
 * executes the five generic compaction operations of Figure 6:
 *
 *   - Bitmask Constructor
 *   - Data Compaction
 *   - Access Compaction
 *   - Replication Compaction
 *   - Access Expansion Compaction
 *
 * plus the enhanced-SCU capabilities of Section 4: duplicate
 * filtering (unique / unique-best-cost) and grouping of elements
 * whose destination nodes share a cache line, both via in-memory
 * hash tables. Enhanced operation is the two-step process of
 * Section 4.1: a first pass generates the filter bitmask and/or the
 * grouping order vector; a second pass performs the compaction
 * consuming them. Every operation is executed functionally and is
 * charged on the shared simulation timeline through the pipeline
 * timing model.
 *
 * This class is the "simple API" the paper exposes to applications.
 */

#ifndef SCUSIM_SCU_SCU_HH
#define SCUSIM_SCU_SCU_HH

#include <memory>
#include <span>
#include <vector>

#include "mem/address_space.hh"
#include "mem/mem_system.hh"
#include "scu/hash_table.hh"
#include "scu/pipeline.hh"
#include "scu/scu_config.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

namespace scusim::trace
{
class TraceChannel;
class TraceSink;
} // namespace scusim::trace

namespace scusim::scu
{

/** Comparison operator of the Bitmask Constructor. */
enum class CompareOp { Eq, Ne, Lt, Le, Gt, Ge };

/** Filtering flavor of the enhanced SCU (Section 4.2). */
enum class FilterMode { None, Unique, BestCost };

/** Result of one SCU operation. */
struct ScuOpStats
{
    Tick start = 0;
    Tick end = 0;
    std::uint64_t elemsIn = 0;    ///< input elements scanned
    std::uint64_t elemsOut = 0;   ///< elements written/kept
    std::uint64_t filtered = 0;   ///< duplicates removed by the hash
    std::uint64_t readTxns = 0;
    std::uint64_t writeTxns = 0;
    std::uint64_t hashProbes = 0;

    Tick cycles() const { return end - start; }
};

/**
 * Options applied to a compaction operation. The defaults run the
 * basic (Section 3) operation; the step-1 / step-2 fields implement
 * the enhanced flow of Section 4.1.
 */
struct OpOptions
{
    /** Step 1 sets this false: the pass only generates metadata. */
    bool writeOutput = true;

    /** Step 1: run filtering, recording keep flags per produced
     *  element into keepOut. */
    FilterMode filterMode = FilterMode::None;
    std::vector<std::uint8_t> *keepOut = nullptr;
    /**
     * Unique filtering probes the secondary hash region. The in-
     * memory hash is reconfigurable per operation (Section 4.1), so
     * a traversal can keep two persistent tables alive — one for the
     * expansion stream, one for the contraction stream.
     */
    bool useSecondaryUnique = false;
    /** BestCost filtering: cost parallel to the produced stream. */
    std::span<const std::uint32_t> costs;

    /** Step 1: run grouping, recording the emit order (indices into
     *  the produced stream) into orderOut. */
    bool makeGroups = false;
    std::vector<std::uint32_t> *orderOut = nullptr;

    /** Step 2: previously generated keep flags / grouping order. */
    const std::vector<std::uint8_t> *keep = nullptr;
    const std::vector<std::uint32_t> *order = nullptr;
};

/** Whole-run SCU activity, for energy accounting and Figure 11. */
struct ScuTotals
{
    std::uint64_t ops = 0;
    std::uint64_t elements = 0;
    std::uint64_t readTxns = 0;
    std::uint64_t writeTxns = 0;
    std::uint64_t hashReadTxns = 0;
    std::uint64_t hashWriteTxns = 0;
    std::uint64_t filtered = 0;
    Tick busyCycles = 0;
};

class Scu
{
  public:
    using Elems = mem::DeviceArray<std::uint32_t>;
    using Flags = mem::DeviceArray<std::uint8_t>;

    Scu(const ScuParams &params, mem::MemSystem &mem,
        sim::Simulation &simulation, mem::AddressSpace &as,
        stats::StatGroup *parent);

    /**
     * Bitmask Constructor: out[i] = (in[i] <op> ref) for i < n.
     */
    ScuOpStats bitmaskConstructor(const Elems &in, std::size_t n,
                                  CompareOp op, std::uint32_t ref,
                                  Flags &out);

    /**
     * Data Compaction: append in[i] to @p out for every i < n with
     * mask[i] != 0 (mask optional: null keeps everything),
     * preserving order.
     */
    ScuOpStats dataCompaction(const Elems &in, std::size_t n,
                              const Flags *mask, Elems &out,
                              std::size_t &out_n,
                              const OpOptions &opt = {});

    /**
     * Access Compaction: append data[indexes[i]] for every i < n
     * with mask[i] != 0.
     */
    ScuOpStats accessCompaction(const Elems &data,
                                const Elems &indexes, std::size_t n,
                                const Flags *mask, Elems &out,
                                std::size_t &out_n,
                                const OpOptions &opt = {});

    /**
     * Replication Compaction: append count[i] copies of in[i] for
     * every i < n with mask[i] != 0.
     */
    ScuOpStats replicationCompaction(const Elems &in,
                                     const Elems &count,
                                     std::size_t n, const Flags *mask,
                                     Elems &out, std::size_t &out_n,
                                     const OpOptions &opt = {});

    /**
     * Access Expansion Compaction: append
     * data[indexes[i] .. indexes[i]+count[i]) for every i < n with
     * mask[i] != 0. This is the frontier-expansion workhorse.
     */
    ScuOpStats accessExpansionCompaction(const Elems &data,
                                         const Elems &indexes,
                                         const Elems &count,
                                         std::size_t n,
                                         const Flags *mask,
                                         Elems &out,
                                         std::size_t &out_n,
                                         const OpOptions &opt = {});

    /** Reset the filtering/grouping hash tables between passes. */
    void resetFilterTables();

    /** Bind this unit's trace channel ("scu", device-prefixed). */
    void attachTrace(trace::TraceSink &sink,
                     const std::string &prefix = "");

    const ScuParams &params() const { return p; }
    const ScuTotals &totals() const { return agg; }

    UniqueFilterTable &uniqueFilter() { return *uniqueTable; }
    UniqueFilterTable &secondaryFilter() { return *uniqueTable2; }
    BestCostFilterTable &costFilter() { return *costTable; }
    GroupingTable &groupingTable() { return *groupTable; }

    /** Elements per L2 line of 4 B node records (grouping key). */
    std::uint64_t
    nodesPerLine() const
    {
        return memSys.l2().params().lineBytes / 4;
    }

  private:
    /**
     * Shared back-half of every compaction: the produced stream
     * @p produced is filtered/grouped/ordered per @p opt and written
     * to @p out through @p pipe.
     */
    void emitStream(const std::vector<std::uint32_t> &produced,
                    const OpOptions &opt, Elems &out,
                    std::size_t &out_n, ScuPipeline &pipe,
                    ScuOpStats &st);

    /** Close out operation @p op: timing, totals, simulation time. */
    void sealOp(const char *op, ScuPipeline &pipe, ScuOpStats &st);

    const ScuParams p;
    mem::MemSystem &memSys;
    sim::Simulation &sim;

    std::unique_ptr<UniqueFilterTable> uniqueTable;
    std::unique_ptr<UniqueFilterTable> uniqueTable2;
    std::unique_ptr<BestCostFilterTable> costTable;
    std::unique_ptr<GroupingTable> groupTable;

    /** Device regions backing the generated metadata vectors. */
    Addr metaKeepBase = 0;
    Addr metaOrderBase = 0;

    /** The Data Fetch unit's outstanding reads, reused by every op. */
    InflightWindow readWindow;

    ScuTotals agg;

    stats::StatGroup grp;
    stats::Scalar opsExecuted;
    stats::Scalar elementsProcessed;
    stats::Scalar duplicatesFiltered;
    stats::Scalar busyCycles;
    trace::TraceChannel *traceChan = nullptr;
};

} // namespace scusim::scu

#endif // SCUSIM_SCU_SCU_HH
