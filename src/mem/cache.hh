/**
 * @file
 * Set-associative, write-back, write-allocate cache timing model with
 * banked tag/data arrays, MSHR-limited miss parallelism and in-flight
 * miss merging. Used for the per-SM L1s and the shared, banked L2.
 *
 * The model is tag-only: functional data lives in host arrays (see
 * mem/address_space.hh); the cache tracks presence, dirtiness and
 * resource occupancy to produce completion ticks and activity counts.
 */

#ifndef SCUSIM_MEM_CACHE_HH
#define SCUSIM_MEM_CACHE_HH

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/bits.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "stats/stats.hh"

namespace scusim::sim
{
class Simulation;
} // namespace scusim::sim

namespace scusim::mem
{

/** Configuration of one cache level. */
struct CacheParams
{
    std::string name = "l2";
    std::uint64_t sizeBytes = 2 << 20;
    unsigned lineBytes = 128;
    unsigned ways = 16;
    unsigned banks = 16;      ///< parallel tag/data banks
    Tick hitLatency = 28;     ///< cycles from issue to data on a hit
    Tick bankCycle = 1;       ///< bank occupancy per access
    Tick atomicExtra = 4;     ///< extra occupancy for read-modify-write
    unsigned mshrs = 128;     ///< max misses in flight
};

/**
 * Completion ticks of the accesses holding a bounded resource (a
 * cache's MSHRs, an SM's load budget), kept sorted in a ring: the
 * earliest sits at the head, so dropping every tick <= t advances the
 * head, and a push shifts the later ticks one slot toward the tail.
 * Completions arrive in nearly ascending order, so the shift is
 * short. Holds the same multiset a min-heap would. Storage doubles on
 * demand up to the bound given at construction; callers pop before
 * they push, so the size never exceeds it.
 */
class CompletionRing
{
  public:
    /** Holds at most @p limit ticks; panics unless @p limit >= 1. */
    explicit CompletionRing(std::size_t limit);

    std::size_t size() const { return count; }

    /** The earliest tick; the ring must not be empty. */
    Tick min() const { return buf[head & mask]; }

    void
    popMin()
    {
        ++head;
        --count;
    }

    /** Drop every tick <= @p t. */
    void
    purgeUpTo(Tick t)
    {
        while (count && buf[head & mask] <= t)
            popMin();
    }

    /** Insert @p t; the ring must hold fewer ticks than its bound. */
    void push(Tick t);

  private:
    static constexpr std::size_t kMinSlots = 16;

    void grow();

    std::vector<Tick> buf;
    std::size_t mask;
    std::size_t head = 0; ///< unwrapped; the slot is head & mask
    std::size_t count = 0;
    std::size_t bound;
};

/**
 * Index of the way of @p row that holds @p tag, else @p width: the
 * scalar form of matchTag(), one conditional move per way, scanned
 * from the top so the lowest matching way wins.
 */
inline unsigned
matchTagScalar(const std::uint32_t *row, unsigned width,
               std::uint32_t tag)
{
    unsigned hit = width;
    for (unsigned w = width; w-- > 0;)
        hit = row[w] == tag ? w : hit;
    return hit;
}

/**
 * Index of the lowest way of @p row that holds @p tag, else @p width.
 * @p width is a multiple of four and at most 64. Compares four ways
 * at a time with no data-dependent branch: SSE2 (baseline on x86-64)
 * where the host has it, matchTagScalar() elsewhere.
 */
inline unsigned
matchTag(const std::uint32_t *row, unsigned width, std::uint32_t tag)
{
#if defined(__SSE2__)
    const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
    auto group = [row, key](unsigned w) {
        return _mm_cmpeq_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(row + w)),
            key);
    };
    std::uint64_t hits = 0;
    if (width == 16) {
        // A 16-way row (both L2 presets): narrow the four groups'
        // lanes to one byte each, so one movemask gives the mask.
        hits = static_cast<std::uint32_t>(_mm_movemask_epi8(
            _mm_packs_epi16(_mm_packs_epi32(group(0), group(4)),
                            _mm_packs_epi32(group(8), group(12)))));
    } else {
        for (unsigned w = 0; w < width; w += 4)
            hits |= static_cast<std::uint64_t>(_mm_movemask_ps(
                        _mm_castsi128_ps(group(w))))
                    << w;
    }
    // ctz64(0) is 64, at least any width.
    return std::min(ctz64(hits), width);
#else
    return matchTagScalar(row, width, tag);
#endif
}

/**
 * In-flight line fills for secondary-miss merging: a flat
 * open-addressed line→fill-tick map with power-of-two capacity,
 * linear probing and backward-shift erase. A slot is 16 bytes: the
 * line, and one word packing the fill tick (high 56 bits) with the
 * generation it was written in (low 8 bits), so clear() — each L1
 * invalidation at a kernel boundary — costs O(1) however far the
 * table once grew; every 255th clear() resets the stamps once.
 * Capacity is kept across clears and erases, so a table that has
 * reached its working size allocates nothing. With a clock set, the
 * table first drops the entries that clock has made dead before it
 * grows, so its capacity follows the entries still in flight.
 */
class InflightTable
{
  public:
    static constexpr unsigned kGenBits = 8;
    /**
     * Fill ticks must be below this (56 bits, about 7.2e16 ticks,
     * far past the 2^40-tick default run bound); set() panics on a
     * larger one.
     */
    static constexpr Tick kTickLimit = Tick{1} << (64 - kGenBits);

    InflightTable() { slots.resize(kMinSlots); }

    /** The fill tick recorded for @p line, if any. */
    std::optional<Tick> find(Addr line) const;
    /**
     * Record @p line's fill tick, overwriting any earlier one. Panics
     * unless @p fill < kTickLimit.
     */
    void set(Addr line, Tick fill);
    /** Drop @p line's entry, if any. */
    void erase(Addr line);
    /** Drop every entry whose fill tick is <= @p t. */
    void eraseUpTo(Tick t);
    void clear();
    std::size_t size() const { return count; }
    std::size_t capacity() const { return slots.size(); }

    /**
     * Bind the clock of the owning simulation: no
     * lookup is ever made before @p sim's current tick, so an entry
     * whose fill tick is at or before it can no longer delay a hit.
     * Before it grows, the table drops every such entry, and grows
     * only if that left it more than a quarter full (so the sweeps
     * stay amortized O(1) per insert).
     */
    void setClock(const sim::Simulation *sim) { clock = sim; }

  private:
    static constexpr std::uint64_t kGenMask = (1u << kGenBits) - 1;

    struct Slot
    {
        Addr line = 0;
        /** fill << kGenBits | gen; occupied iff gen == the table's. */
        std::uint64_t fillGen = 0;

        Tick fill() const { return fillGen >> kGenBits; }
    };
    static_assert(sizeof(Slot) == 16, "four slots per cache line");
    static constexpr std::size_t kMinSlots = 64;

    bool used(const Slot &s) const { return (s.fillGen & kGenMask) == gen; }

    std::size_t
    home(Addr line) const
    {
        // Fibonacci multiply-shift to the table's index bits.
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(line) * 0x9E3779B97F4A7C15ull) >>
            shift);
    }

    /** Slot holding @p line, else the empty slot ending its run. */
    std::size_t probe(Addr line) const;
    void eraseSlot(std::size_t i);
    /** Room for one more entry: a clock-floor purge, else grow(). */
    void makeRoom();
    void grow();

    std::vector<Slot> slots;
    unsigned shift = 64 - floorLog2(kMinSlots);
    std::size_t count = 0;
    std::uint64_t gen = 1; ///< in [1, kGenMask]; 0 marks an erased slot
    const sim::Simulation *clock = nullptr;
};

/**
 * One cache level. Misses propagate to the @p downstream level given
 * at construction.
 */
class Cache : public MemLevel
{
  public:
    Cache(const CacheParams &params, MemLevel *downstream,
          stats::StatGroup *parent);

    /**
     * Panics if @p addr's line number does not fit a 32-bit tag
     * (device memory is 4 GB: 2^25 lines of 128 B).
     */
    MemResult access(Tick issue, Addr addr, AccessKind kind,
                     unsigned bytes) override;

    /**
     * Bind the owning simulation's clock. Every later
     * access must issue at or after its current tick (a checked build
     * asserts it); the in-flight table then drops fills completed by
     * that tick before it grows (InflightTable::setClock).
     */
    void
    setClock(const sim::Simulation *sim)
    {
        clock = sim;
        inflight.setClock(sim);
    }

    /** Slots of the in-flight fill table (tests bound its growth). */
    std::size_t inflightCapacity() const { return inflight.capacity(); }

    /**
     * Drop all lines (kernel-boundary behaviour for L1s), writing
     * dirty ones back in ascending way order. Visits only the ways
     * installed since the last call.
     */
    void invalidateAll(Tick now);

    /**
     * Pin an address range (way-locking): lines inside it are never
     * victimized by fills from outside it. Used for the SCU's
     * in-memory hash tables, which are sized to stay L2 resident
     * (Table 2). Pass bytes = 0 to clear.
     */
    void
    setProtectedRegion(Addr base, std::uint64_t bytes)
    {
        protBase = base;
        protBytes = bytes;
    }

    const CacheParams &params() const { return p; }

    double numHits() const { return hits.value(); }
    double numMisses() const { return misses.value(); }

    double
    hitRate() const
    {
        double t = hits.value() + misses.value();
        return t > 0 ? hits.value() / t : 0;
    }

    /** Total accesses (reads+writes+atomics), for energy accounting. */
    double numAccesses() const { return hits.value() + misses.value(); }
    double numWritebacks() const { return writebacks.value(); }

  private:
    /**
     * Tag of an invalid way and of the padding ways; access() panics
     * on a line number this large, so it never matches.
     */
    static constexpr std::uint32_t kInvalidTag = ~std::uint32_t{0};

    /** Per-way state besides the tag, which lives in Cache::tags. */
    struct Line
    {
        bool dirty = false;
        /**
         * False only once a hit has found no in-flight entry for this
         * line (or dropped an expired one): until the line is
         * installed again, no entry for it can exist, so hits skip
         * the table lookup. Every install sets it.
         */
        bool mayBeInflight = false;
        Tick lastUse = 0;
    };

    /** Reserve a bank slot; returns the tick the access starts. */
    Tick reserveBank(Tick issue, Addr line_addr, Tick occupancy);

    /** Block until an MSHR is free; returns the adjusted start tick. */
    Tick acquireMshr(Tick start);

    /**
     * A fill's completion tick and the line it installed; null when
     * every way is pinned and the fill bypassed the set.
     */
    struct Fill
    {
        Tick done;
        Line *line;
    };

    /**
     * Bring a line in from downstream into a victim way of the set
     * whose first way is @p set.
     */
    Fill fill(Tick start, Addr line_addr, std::size_t set,
              std::uint32_t tag, unsigned bytes);

    /** Index of the first way of @p line_addr's set. */
    std::size_t
    setBase(Addr line_addr) const
    {
        // Hash the set index so power-of-two strides (CSR offsets,
        // hash table rows) do not pathologically alias.
        return static_cast<std::size_t>(
                   mixBits(line_addr >> lineShift) & setMask) *
               rowWays;
    }

    /** Line address of way @p w's tag. */
    Addr
    lineAddr(std::size_t w) const
    {
        return static_cast<Addr>(tags[w]) << lineShift;
    }

    /** Install @p tag in way @p w as a clean line. */
    Line &install(std::size_t w, std::uint32_t tag);

    /** Write back way @p w's line downstream if it is dirty. */
    void writeBackIfDirty(Tick when, std::size_t w);

    CacheParams p;
    MemLevel *next;
    std::uint64_t setMask = 0; ///< set count - 1 (a power of two)
    unsigned lineShift; ///< log2(lineBytes)
    /**
     * Ways per set row: p.ways rounded up to a multiple of four, so
     * matchTag() compares whole groups; the padding ways stay
     * kInvalidTag and are never installed.
     */
    unsigned rowWays;
    /**
     * Way tags, set count x rowWays, one set after another;
     * kInvalidTag marks an invalid way. A hit scans only these.
     */
    std::vector<std::uint32_t> tags;
    std::vector<Line> lines; ///< parallel to tags
    /**
     * Bit w % 64 of word w / 64 is set once way w is installed and
     * cleared by invalidateAll, so it covers every non-invalid way.
     */
    std::vector<std::uint64_t> validBits;
    std::vector<Tick> bankFree;
    std::uint64_t bankMask = 0; ///< bank count - 1 (a power of two)

    /** Completion ticks of outstanding misses (MSHR occupancy). */
    CompletionRing outstanding;
    /** In-flight line fills, for secondary-miss merging. */
    InflightTable inflight;
    const sim::Simulation *clock = nullptr;
    Tick lruClock = 0;
    std::uint64_t accessesSincePurge = 0;
    Addr protBase = 0;
    std::uint64_t protBytes = 0;

    bool
    isProtected(Addr a) const
    {
        return protBytes && a >= protBase &&
               a < protBase + protBytes;
    }

    stats::StatGroup grp;
    stats::Scalar hits, misses, writebacks, atomicOps;
    stats::Scalar mshrStallCycles;
};

} // namespace scusim::mem

#endif // SCUSIM_MEM_CACHE_HH
