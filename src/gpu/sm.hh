/**
 * @file
 * Streaming multiprocessor timing model: resident warps, greedy
 * round-robin warp scheduling with a configurable issue width, an
 * LSU that injects one coalesced transaction per cycle, per-SM L1,
 * and an MSHR-style cap on outstanding load transactions.
 *
 * The scheduling hot path keeps the per-warp fields tick() actually
 * reads — blockedUntil, pc, computeLeft, instruction count — in
 * parallel packed arrays (SoA) beside 64-bit ready/done masks, so a
 * serviced cycle walks a handful of cache lines instead of a vector
 * of fat Warp structs. Blocked warps wait for promotion in a timing
 * wheel (short ALU waits) or a min-heap (memory waits), keyed by
 * stable warp index, so waking costs O(woken).
 */

#ifndef SCUSIM_GPU_SM_HH
#define SCUSIM_GPU_SM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "sim/clocked.hh"
#include "stats/stats.hh"

namespace scusim::trace
{
class TraceChannel;
}

namespace scusim::gpu
{

/**
 * Builds the next warp for an SM, or returns false when the kernel
 * has no more warps for it. Supplied by the Gpu dispatcher.
 */
using WarpSource = std::function<bool(Warp &out)>;

class StreamingMultiprocessor : public sim::Clocked
{
  public:
    /**
     * Resident-slot capacity of the mask machinery: one bit per slot
     * in a 64-bit word. Both modeled systems resolve
     * maxResidentWarps() to 64 (2048 threads / 32-wide warps); the
     * constructor rejects configs that exceed the mask width.
     */
    static constexpr unsigned kMaxWarpSlots = 64;
    static_assert(kMaxWarpSlots <= 64,
                  "ready/done masks are single 64-bit words");
    /**
     * Blocks of at most this many ticks (ALU dependence waits) wait
     * for promotion on a timing wheel; longer ones (memory waits) and
     * warps that arrive blocked wait on a heap. Any split gives the
     * same promotions; this one only decides which structure holds a
     * warp.
     */
    static constexpr Tick kNearHorizon = 32;

    StreamingMultiprocessor(const GpuParams &params, unsigned id,
                            mem::MemLevel *shared_mem,
                            stats::StatGroup *parent);

    /** Attach the warp source and per-kernel stats sink for a launch. */
    void beginKernel(WarpSource source, KernelStats *sink);

    /** Detach after a launch completes; invalidates the L1. */
    void endKernel(Tick now);

    void tick(Tick now) override;
    bool busy(Tick now) const override;
    Tick nextWakeTick() const override;

    mem::Cache &l1() { return l1Cache; }

    double activeCycles() const { return smActiveCycles.value(); }

    /** Bind this SM's trace channel (non-owning, null detaches). */
    void setTraceChannel(trace::TraceChannel *c) { traceChan = c; }

  private:
    friend class SmTestPeer; ///< check_test's corruption hook

    /**
     * Promote the blocked warps whose blockedUntil has arrived into
     * readyMask and re-derive blockedMin over the rest, visiting only
     * the wheel buckets and heap entries that came due. One compare
     * while blockedMin is still in the future — the wholly-blocked
     * rejection that keeps stall-adjacent ticks off the warp arrays
     * entirely.
     */
    void advanceReady(Tick now);

    /** Park slot @p s, blocked until @p until, in the far heap. */
    void pushFar(std::size_t s, Tick until);

    /**
     * Checked builds: the ready set is exactly {s : wBlocked[s] <=
     * now} and no warp waits in both the wheel and the heap.
     */
    void checkPromotion(Tick now) const;

    /**
     * Issue slot @p s's current instruction. The caller guarantees
     * the slot is ready and not done; mask/blockedMin bookkeeping for
     * the slot's new blockedUntil happens here.
     */
    void issueSlot(std::size_t s, Tick now);

    /**
     * Execute a memory warp instruction over its lane-address slots
     * @p lanes; returns block-until tick.
     */
    Tick executeMem(const WarpInstr &wi, std::span<const Addr> lanes,
                    Tick now);

    /**
     * Remove the slots of @p retire, preserving the relative order of
     * the survivors (one remove-one-slot shift per retired slot — a
     * swap-with-back would permute round-robin issue order and break
     * the byte-identical-stats mandate; see DESIGN). The retired
     * slots' warps go back on `freeWarps` for refill() to reuse.
     * Blocked warps are keyed by warp index, so only `slotOf` moves.
     */
    void compactRetired(std::uint64_t retire);

    /** Pull new warps from the source while slots are free. */
    void refill();

    const GpuParams &p;
    unsigned smId;
    mem::MemLevel *sharedMem; ///< L2 side (atomics bypass the L1)
    mem::Cache l1Cache;

    /** Recompute wakeCache (blockedMin folded with the ready slots). */
    void recomputeWake();

    WarpSource warpSource;
    KernelStats *kstats = nullptr;

    /**
     * The cold half of every warp (instruction and address vectors,
     * thread count), one per resident slot the SM can hold. A slot
     * names its warp by index (`body`), so retirement compaction moves
     * one byte per slot and a retired warp's vectors stay where they
     * are until refill() hands them to the next warp.
     */
    std::vector<Warp> warps;
    /** Indices into `warps` no resident slot is using. */
    std::vector<std::uint8_t> freeWarps;

    /**
     * Resident warps in SoA layout, index = slot. `body` names each
     * slot's cold half in `warps` (its stable warp index, kept for
     * the warp's whole stay while slots shift under retirement);
     * `slotOf` is the inverse. The packed arrays below are everything
     * the per-cycle scan reads, so the scan streams over ~n*16 bytes
     * instead of n fat structs.
     * Invariants (outside tick()):
     *  - readyMask bit s set  ⇔ wBlocked[s] <= some past now (ticks
     *    are monotone, so ready slots never revert on their own);
     *  - doneMask bit s set   ⇔ wPc[s] >= wNumInstrs[s];
     *  - every blocked slot's warp waits in exactly one of the wheel
     *    and the heap; ready warps in neither;
     *  - nearMin / farMin == exact min blockedUntil over the wheel /
     *    heap (tickNever when empty);
     *  - blockedMin == min(nearMin, farMin) == exact min wBlocked[]
     *    over slots NOT in readyMask (tickNever when none);
     *  - masks never carry bits >= body.size().
     */
    std::vector<std::uint8_t> body;
    std::array<std::uint8_t, kMaxWarpSlots> slotOf{};
    std::vector<Tick> wBlocked;
    std::vector<std::uint32_t> wPc;
    std::vector<std::uint32_t> wComputeLeft;
    std::vector<std::uint32_t> wNumInstrs;
    std::uint64_t readyMask = 0;
    std::uint64_t doneMask = 0;
    Tick nearMin = tickNever;
    Tick farMin = tickNever;
    Tick blockedMin = tickNever;
    static constexpr unsigned kWheelBuckets = 64;
    static_assert(kNearHorizon < kWheelBuckets,
                  "a wheel bucket must name one tick of the horizon");
    /**
     * Near timing wheel: bucket t % 64 holds the warp-index mask of
     * the warps blocked until tick t; bit b of wheelOcc is set iff
     * bucket b is non-empty. After advanceReady(L) every entry lies
     * in (L, L + kNearHorizon] (entries are only added right after
     * it, by issueSlot), so each bucket names exactly one tick and
     * the next call walks only (L, min(now, L + kNearHorizon)].
     */
    std::array<std::uint64_t, kWheelBuckets> wheel{};
    std::uint64_t wheelOcc = 0;
    Tick wheelBase = 0; ///< L: tick of the last advanceReady()
    /**
     * Far min-heap (std::greater) of blockedUntil << kFarWarpBits |
     * warp index, at most one entry per warp.
     */
    std::vector<std::uint64_t> farHeap;
    static constexpr unsigned kFarWarpBits = 6;
    static_assert(kMaxWarpSlots == 1u << kFarWarpBits,
                  "a far-heap key's low bits name any warp index");

    std::size_t rrCursor = 0;
    bool sourceDry = true;
    /**
     * Min blockedUntil over resident warps (tickNever when none),
     * maintained at the end of every tick()/refill() so busy() and
     * nextWakeTick() are O(1) instead of rescanning the warp list
     * twice per serviced cycle — the simulator's hottest reads.
     */
    Tick wakeCache = tickNever;

    Tick lsuFree = 0;
    mem::CompletionRing outstandingLoads;
    std::vector<Addr> txnScratch;
    trace::TraceChannel *traceChan = nullptr;
    std::size_t mshrHighWater = 0; ///< outstanding-load FIFO peak
                                   ///< (per kernel; reset on
                                   ///< endKernel)

    stats::StatGroup grp;
    stats::Scalar smActiveCycles;
    stats::Scalar issuedInstrs;
    stats::Scalar issueStallCycles;
};

} // namespace scusim::gpu

#endif // SCUSIM_GPU_SM_HH
