/**
 * @file
 * Timing model of one SCU operation in flight. Mirrors the hardware
 * pipeline of Figures 7/8: the Address Generator produces element
 * slots at the configured pipeline width; the Data Fetch unit issues
 * reads through a read Coalescing Unit (sequential-stream merging,
 * bounded in-flight window); the Data Store write-combines the
 * sequential output; the Filtering/Grouping unit issues its own hash
 * probes through a second coalescing unit.
 *
 * The model is throughput-oriented: thanks to the deep request FIFO
 * (38 KB, Table 1) the unit is limited by pipeline width, by the
 * in-flight request window and by memory bandwidth — not by single
 * access latency. The operation's completion tick is the max of the
 * compute-throughput time and the last memory completion, plus a
 * drain constant.
 */

#ifndef SCUSIM_SCU_PIPELINE_HH
#define SCUSIM_SCU_PIPELINE_HH

#include <array>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "mem/mem_system.hh"
#include "scu/scu_config.hh"

namespace scusim::scu
{

/** Identifiers of the sequential input streams an operation reads. */
enum class Stream : unsigned
{
    Data = 0,    ///< sparse/source data vector
    Bitmask = 1, ///< valid-flag vector
    Indexes = 2, ///< gather index vector
    Count = 3,   ///< replication/expansion count vector
    Order = 4,   ///< grouping order vector
    NumStreams = 5
};

/**
 * The Data Fetch unit's window of outstanding reads: the completion
 * ticks of the reads in flight. Within one operation the read issue
 * tick never decreases and every completion is at or after the tick
 * it was issued at, so the window is a calendar: one count per tick
 * in a ring that starts at the purge cursor, plus a min-heap for the
 * rare completion past the ring's horizon. "Drop every completion up
 * to t" is a cursor sweep and "the earliest completion" a forward
 * scan to the next non-zero count, with the same contents, sizes and
 * order as a priority queue of ticks.
 *
 * The Scu owns one window and reuses it for every operation; clear()
 * costs the span of what was left, never the ring.
 */
class InflightWindow
{
  public:
    /** Ticks the ring covers from the purge cursor. */
    static constexpr Tick kRingTicks = Tick{1} << 17;

    InflightWindow() : ring(kRingTicks, 0) {}

    /** Empty the window and put the purge cursor at @p base. */
    void clear(Tick base);

    /** Drop every completion at or before @p t. */
    void purgeUpTo(Tick t);

    /** Remove and return the earliest completion; size() > 0. */
    Tick popMin();

    /** Add a completion at @p c. */
    void
    push(Tick c)
    {
        if (c - base < kRingTicks) {
            ++ring[c & kRingMask];
            ++ringCount;
        } else {
            pushFar(c);
        }
    }

    std::size_t size() const { return ringCount + far.size(); }

  private:
    static constexpr Tick kRingMask = kRingTicks - 1;

    void pushFar(Tick c);

    /** Completions per tick; tick c lives in slot c & kRingMask. */
    std::vector<std::uint32_t> ring;
    /** Completions held in the ring, all in [base, base + kRingTicks). */
    std::size_t ringCount = 0;
    /** Min-heap of the completions pushed past the ring's horizon. */
    std::vector<Tick> far;
    /** Purge cursor: the ring holds nothing earlier. */
    Tick base = 0;
};

/** Traffic counters of one operation. */
struct PipelineTraffic
{
    std::uint64_t readTxns = 0;
    std::uint64_t writeTxns = 0;
    std::uint64_t hashReadTxns = 0;
    std::uint64_t hashWriteTxns = 0;
    std::uint64_t elements = 0;
    std::uint64_t maxInflight = 0; ///< in-flight read window peak
};

class ScuPipeline
{
  public:
    /** @p window is emptied and holds this operation's reads. */
    ScuPipeline(const ScuParams &params, mem::MemSystem &mem,
                InflightWindow &window, Tick start);

    /** Account @p n element slots through the pipeline. */
    void
    elements(std::uint64_t n = 1)
    {
        traffic.elements += n;
    }

    /**
     * Read @p bytes at @p addr from sequential stream @p s; only a
     * line change issues a transaction (the read coalescing unit
     * merges the rest).
     */
    void
    seqRead(Stream s, Addr addr, unsigned bytes = 4)
    {
        Addr &last = lastLine[static_cast<unsigned>(s)];
        if (!within(last, addr, bytes, lineBytes))
            readLines(last, addr, bytes);
    }

    /**
     * Random-access read (gather). Consecutive addresses within the
     * merge window still coalesce via the sector check.
     */
    void
    gatherRead(Addr addr, unsigned bytes = 4)
    {
        if (!within(lastGatherLine, addr, bytes, kSectorBytes))
            gatherSectors(addr, bytes);
    }

    /** Write-combined store to the (sequential) output array. */
    void
    seqWrite(Addr addr, unsigned bytes = 4)
    {
        if (!within(lastWriteLine, addr, bytes, lineBytes))
            writeLines(addr, bytes);
    }

    /**
     * One filtering/grouping hash probe at set address @p addr,
     * reading @p read_bytes (the probed set) and optionally writing
     * the updated entry (one 32 B sector).
     */
    void hashAccess(Addr addr, bool write, unsigned read_bytes = 64);

    /** Complete the operation; returns the end tick. */
    Tick finish();

    const PipelineTraffic &counters() const { return traffic; }

  private:
    /** Gathers fetch 32 B sectors, not whole lines. */
    static constexpr unsigned kSectorBytes = 32;

    /**
     * True when [addr, addr + bytes) lies inside the @p granule
     * -aligned block starting at @p last: the coalescing unit merges
     * the access into the previous transaction.
     */
    static bool
    within(Addr last, Addr addr, unsigned bytes, Addr granule)
    {
        return alignDown(addr, granule) == last &&
               alignDown(addr + bytes - 1, granule) == last;
    }

    /** Issue every line of a sequential read not merged into @p last. */
    void readLines(Addr &last, Addr addr, unsigned bytes);
    /** Issue every sector of a gather not merged into the last one. */
    void gatherSectors(Addr addr, unsigned bytes);
    /** Post every line of a store not merged into the last one. */
    void writeLines(Addr addr, unsigned bytes);

    /** Issue one read transaction respecting the in-flight window. */
    void issueRead(Addr line_addr, unsigned bytes);

    /** Issue tick of the n-th transaction of a width-scaled port. */
    Tick portTick(std::uint64_t issued) const;

    /** Outstanding-read budget from the request FIFO capacity. */
    std::size_t inflightLimit() const;

    const ScuParams &p;
    mem::MemSystem &mem;
    InflightWindow &inflight;
    /** The L2 line size, the sequential streams' merge granule. */
    const unsigned lineBytes;
    Tick startTick;

    /** Last read-issue tick (for in-flight window accounting). */
    Tick txnIssue;
    /** Per-port issued-transaction counters. */
    std::uint64_t readsIssued = 0;
    std::uint64_t storesIssued = 0;
    std::uint64_t hashIssued = 0;
    /** Latest read-data completion seen. */
    Tick memReady;
    /** Per-stream last line, for sequential merge. */
    std::array<Addr, static_cast<unsigned>(Stream::NumStreams)>
        lastLine;
    Addr lastGatherLine;
    Addr lastWriteLine;
    Addr lastHashLine;

    PipelineTraffic traffic;
};

} // namespace scusim::scu

#endif // SCUSIM_SCU_PIPELINE_HH
