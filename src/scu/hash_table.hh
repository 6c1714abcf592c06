/**
 * @file
 * The SCU's reconfigurable in-memory hash tables (Section 4). The
 * tables live in simulated device memory (cached by the L2 — "using
 * existing memory does not require any additional hardware") and
 * implement the paper's three configurations:
 *
 *  - unique-element filtering (BFS): 4 B entries holding element ids;
 *    a matching probe marks the element as a duplicate, a collision
 *    overwrites (so false negatives are possible but harmless);
 *  - unique-best-cost filtering (SSSP): 8 B entries holding (id,
 *    cost); a probe with a better cost keeps the element and updates
 *    the stored cost;
 *  - grouping (SSSP): 32 B entries accumulating up to 8 elements
 *    whose destination nodes share one cache line; eviction emits the
 *    group so its elements land contiguously in the compacted array.
 */

#ifndef SCUSIM_SCU_HASH_TABLE_HH
#define SCUSIM_SCU_HASH_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "mem/address_space.hh"
#include "scu/scu_config.hh"
#include "sim/check.hh"

namespace scusim::scu
{

/** Memory traffic produced by one probe, for the timing model. */
struct ProbeTraffic
{
    Addr setAddr = 0;   ///< line-granular address of the probed set
    bool wrote = false; ///< whether the probe updated the entry
};

/** Shared set/way bookkeeping for the three table flavors. */
class HashTableBase
{
  public:
    HashTableBase(const HashConfig &cfg, mem::AddressSpace &as,
                  const std::string &name);
    virtual ~HashTableBase() = default;

    std::uint64_t numSets() const { return sets; }
    unsigned numWays() const { return cfg.ways; }
    Addr baseAddr() const { return base; }
    const HashConfig &config() const { return cfg; }

    /** Device address of set @p s. */
    Addr
    setAddr(std::uint64_t s) const
    {
        sim_check(s < sets, "hash set index %llu out of %llu sets",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(sets));
        return base + s * static_cast<std::uint64_t>(cfg.ways) *
                          cfg.entryBytes;
    }

    /** Set index of key @p k. */
    std::uint64_t
    setOf(std::uint64_t k) const
    {
        return mixBits(k) % sets;
    }

    /** Victim way when the set is full (cheap hardware policy). */
    unsigned
    victimWay(std::uint64_t k) const
    {
        return static_cast<unsigned>((mixBits(k) >> 32) % cfg.ways);
    }

    /**
     * Clear all entries (start of a new compaction pass). Only the
     * occupancy words are cleared: probes match only occupied ways,
     * so a stale entry is never matched again.
     */
    virtual void reset() { std::fill(occ.begin(), occ.end(), 0); }

  protected:
    HashConfig cfg;
    std::uint64_t sets;
    Addr base;

    /**
     * Per-set way-occupancy words: bit w of occ[s] is set while way w
     * of set s holds a live entry. Match loops iterate set bits via
     * ctz (ascending way order — the same order the old full-width
     * scans visited), and the first-empty-way choice is
     * ctz(~occ & waysMask); both skip the per-way compare against the
     * empty sentinel entirely. ways <= 64 is enforced at
     * construction.
     */
    std::vector<std::uint64_t> occ;
    /** maskLow(cfg.ways): the valid way bits of one occupancy word. */
    std::uint64_t waysMask = 0;

    void markOccupied(std::uint64_t s, unsigned w)
    {
        occ[s] |= std::uint64_t{1} << w;
    }
};

/** Unique-element filter (BFS configuration, Section 4.2). */
class UniqueFilterTable : public HashTableBase
{
  public:
    UniqueFilterTable(const HashConfig &cfg, mem::AddressSpace &as,
                      const std::string &name = "scu_hash_bfs");

    /**
     * Probe with element id @p key.
     * @return true if the element is to be kept (first sighting),
     *         false if it is a detected duplicate.
     */
    bool probe(std::uint32_t key, ProbeTraffic &traffic);

  private:
    static constexpr std::uint32_t emptyKey =
        static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> entries; ///< sets x ways ids
};

/** Unique-best-cost filter (SSSP configuration, Section 4.2). */
class BestCostFilterTable : public HashTableBase
{
  public:
    BestCostFilterTable(const HashConfig &cfg, mem::AddressSpace &as,
                        const std::string &name = "scu_hash_sssp");

    /**
     * Probe with element id @p key carrying path cost @p cost.
     * @return true to keep (first sighting or better cost).
     */
    bool probe(std::uint32_t key, std::uint32_t cost,
               ProbeTraffic &traffic);

  private:
    struct Entry
    {
        std::uint32_t key = static_cast<std::uint32_t>(-1);
        std::uint32_t cost = 0;
    };
    std::vector<Entry> entries;
};

/** Grouping table (Section 4.3). */
class GroupingTable : public HashTableBase
{
  public:
    GroupingTable(const HashConfig &cfg, unsigned group_size,
                  mem::AddressSpace &as,
                  const std::string &name = "scu_hash_group");

    /**
     * Probe with the destination memory-block id @p line_key for the
     * input element at position @p elem_idx. Evicted groups append
     * their element indices to @p emit_order (they will be stored
     * together in the compacted array).
     */
    void probe(std::uint64_t line_key, std::uint32_t elem_idx,
               std::vector<std::uint32_t> &emit_order,
               ProbeTraffic &traffic);

    /** Emit all resident groups (end of the operation). */
    void flush(std::vector<std::uint32_t> &emit_order);

    unsigned groupSize() const { return grpSize; }

    void reset() override;

  private:
    struct Group
    {
        std::uint64_t lineKey = static_cast<std::uint64_t>(-1);
        std::vector<std::uint32_t> elems;
    };

    /**
     * Call @p fn on every occupied way's group, set-major in ascending
     * way order (the order of a full-table walk), leaving the table
     * empty.
     */
    template <typename F>
    void drain(F &&fn);

    unsigned grpSize;
    std::vector<Group> entries;
};

} // namespace scusim::scu

#endif // SCUSIM_SCU_HASH_TABLE_HH
