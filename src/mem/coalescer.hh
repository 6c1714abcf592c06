/**
 * @file
 * Intra-warp memory-access coalescing: the classic GPU mechanism that
 * merges the 32 lane addresses of one warp memory instruction into
 * the minimal set of cache-line transactions. The effectiveness of
 * this merge — transactions per warp instruction — is the coalescing
 * metric the paper's grouping operation improves (Figure 12).
 */

#ifndef SCUSIM_MEM_COALESCER_HH
#define SCUSIM_MEM_COALESCER_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "sim/check.hh"

namespace scusim::mem
{

namespace detail
{

/**
 * Open-addressed membership set on the stack: 64 slots tracked by one
 * 64-bit occupancy word, good for up to 32 distinct values (load
 * factor under one half). This is the "64-bit membership word" dedup
 * the mask-based coalescing path runs per lane instead of rescanning
 * the output vector.
 */
class MembershipWord
{
  public:
    /** Insert @p v; false if it was already present. */
    bool
    insert(Addr v)
    {
        // Fibonacci multiply-shift to the table's 6 index bits.
        std::size_t h = static_cast<std::size_t>(
            static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull >>
            58);
        while ((used >> h) & 1) {
            if (table[h] == v)
                return false;
            h = (h + 1) & (kSlots - 1);
        }
        used |= std::uint64_t{1} << h;
        table[h] = v;
        return true;
    }

    static constexpr std::size_t kSlots = 64;

  private:
    Addr table[kSlots];
    std::uint64_t used = 0;
};

} // namespace detail

/**
 * Append the unique values of map(lanes[i]) over the lanes selected
 * by @p active (bit i selects lanes[i]) to @p out, preserving
 * first-touch order — the order lanes issue transactions in, which
 * feeds cache and DRAM timing, so it must never change. Set bits past
 * lanes.size() are ignored, so callers with a dense span can pass an
 * all-ones mask.
 *
 * Two fast paths cover the common warp shapes: consecutive lanes that
 * map to the same value (a coalesced run) are killed by a
 * previous-value compare before any table work, and the remaining
 * dedup runs through a 64-bit membership word instead of rescanning
 * the output vector per lane. More than 32 active lanes fall back to
 * the linear rescan (the membership table wants load factor <= 1/2).
 *
 * @return number of unique values appended.
 */
template <typename MapFn>
inline std::size_t
appendMappedUnique(std::span<const Addr> lanes, std::uint64_t active,
                   MapFn &&map, std::vector<Addr> &out)
{
    const std::size_t first = out.size();
    if (lanes.size() < 64)
        active &= maskLow(static_cast<unsigned>(lanes.size()));
    bool have_prev = false;
    Addr prev = 0;
    if (popcount64(active) <= detail::MembershipWord::kSlots / 2) {
        detail::MembershipWord seen;
        for (std::uint64_t m = active; m; m &= m - 1) {
            const Addr v = map(lanes[ctz64(m)]);
            if (have_prev && v == prev)
                continue;
            have_prev = true;
            prev = v;
            if (seen.insert(v))
                out.push_back(v);
        }
        return out.size() - first;
    }
    // >32 active lanes: linear rescan fallback.
    for (std::uint64_t m = active; m; m &= m - 1) {
        const Addr v = map(lanes[ctz64(m)]);
        if (have_prev && v == prev)
            continue;
        have_prev = true;
        prev = v;
        bool dup = false;
        for (std::size_t i = first; i < out.size(); ++i) {
            if (out[i] == v) {
                dup = true;
                break;
            }
        }
        if (!dup)
            out.push_back(v);
    }
    return out.size() - first;
}

/** Append the distinct active-lane addresses (first-touch order). */
inline std::size_t
appendUniqueAddrs(std::span<const Addr> lanes, std::uint64_t active,
                  std::vector<Addr> &out)
{
    return appendMappedUnique(lanes, active,
                              [](Addr a) { return a; }, out);
}

/**
 * Merge the active lanes of @p lane_addrs into unique line base
 * addresses (first-touch order preserved), appending to @p out.
 *
 * @return number of distinct lines (== transactions generated).
 */
inline std::size_t
coalesceLanes(std::span<const Addr> lane_addrs, std::uint64_t active,
              unsigned line_bytes, std::vector<Addr> &out)
{
    if (lane_addrs.size() < 64)
        active &=
            maskLow(static_cast<unsigned>(lane_addrs.size()));
    const std::size_t txns = appendMappedUnique(
        lane_addrs, active,
        [line_bytes](Addr a) { return alignDown(a, line_bytes); },
        out);
    sim::checkCoalesceBounds(popcount64(active), txns);
    return txns;
}

/**
 * Running coalescing-efficiency accumulator: tracks warp memory
 * instructions and the transactions they generated. An ideal fully
 * coalesced 4-byte access pattern produces 1 transaction per warp
 * (with 128 B lines and 32 lanes); fully divergent produces 32.
 */
struct CoalesceStats
{
    std::uint64_t warpMemInstrs = 0;
    std::uint64_t transactions = 0;
    std::uint64_t lanes = 0;

    void
    record(std::size_t lane_count, std::size_t txns)
    {
        ++warpMemInstrs;
        lanes += lane_count;
        transactions += txns;
    }

    /** Average transactions per warp memory instruction. */
    double
    txnsPerInstr() const
    {
        return warpMemInstrs
                   ? static_cast<double>(transactions) /
                         static_cast<double>(warpMemInstrs)
                   : 0;
    }

    /**
     * Coalescing efficiency in [0,1]: useful lanes per transaction
     * relative to the best case (all lanes in one line).
     */
    double
    efficiency() const
    {
        return transactions
                   ? static_cast<double>(lanes) /
                         (32.0 * static_cast<double>(transactions))
                   : 0;
    }

    void
    merge(const CoalesceStats &o)
    {
        warpMemInstrs += o.warpMemInstrs;
        transactions += o.transactions;
        lanes += o.lanes;
    }
};

} // namespace scusim::mem

#endif // SCUSIM_MEM_COALESCER_HH
