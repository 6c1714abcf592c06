/**
 * @file
 * The "device kernel" interface of the GPU timing model. A kernel
 * records, for each logical thread, its compute-instruction counts
 * and the exact simulated memory addresses it touches. The same code
 * computes the functional result, so the timing model always sees
 * the addresses the real algorithm would issue, with all of its
 * divergence and (lack of) coalescing.
 *
 * A kernel body comes in one of two forms:
 *
 * - **Warp-wide** (`KernelLaunch::warpBody`): called once per warp
 *   with a `WarpBuilder` that writes the warp's instructions
 *   directly. Every op covers exactly the warp's live lanes, and
 *   lanes only ever leave (`keepIf`), so the result is byte for byte
 *   what the per-lane form plus the positional merge would build.
 *   Uniform kernels and kernels whose lanes only drop out at a
 *   predicate (tail-predicated: init, scan, scatter, gather, status
 *   lookup, ...) use it.
 * - **Per-lane** (`KernelLaunch::body`): called once per thread with
 *   a `ThreadRecorder`; the warp's lane programs are then merged
 *   positionally (`gpu::mergeLanes`). Only bodies whose lanes diverge
 *   mid-program need it, because the merged order then depends on
 *   which path the leader lane takes: SSSP's contraction (an atomic
 *   taken by some lanes before two stores taken by all) and the
 *   connected-components example's per-thread neighbour loop.
 */

#ifndef SCUSIM_GPU_KERNEL_HH
#define SCUSIM_GPU_KERNEL_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sim/check.hh"

namespace scusim::gpu
{

/** Execution phase a kernel belongs to, for Figure 1 attribution. */
enum class Phase
{
    Compaction, ///< stream compaction work (offloadable to the SCU)
    Processing, ///< the rest of the graph algorithm
};

/** One recorded per-thread operation. */
struct ThreadOp
{
    enum class Kind : std::uint8_t { Compute, Load, Store, Atomic };

    Kind kind;
    std::uint32_t count; ///< instructions (Compute) or bytes (mem ops)
    Addr addr;           ///< memory ops only
};

/**
 * Recorder handed to a per-lane kernel body for one thread.
 * Operations are replayed in order by the SIMT pipeline, positionally
 * merged across the 32 lanes of a warp. `Gpu::buildWarp` records all
 * lanes of a warp back to back into one recorder, so a body only
 * ever appends.
 */
class ThreadRecorder
{
  public:
    /** @p n back-to-back ALU/control instructions. */
    void
    compute(std::uint32_t n)
    {
        if (n)
            ops.push_back({ThreadOp::Kind::Compute, n, 0});
    }

    /** A global load of @p bytes at @p a. */
    void
    load(Addr a, std::uint32_t bytes = 4)
    {
        ops.push_back({ThreadOp::Kind::Load, bytes, a});
    }

    /** A global (posted) store of @p bytes at @p a. */
    void
    store(Addr a, std::uint32_t bytes = 4)
    {
        ops.push_back({ThreadOp::Kind::Store, bytes, a});
    }

    /** A read-modify-write performed at the L2 (atomicAdd/Min). */
    void
    atomic(Addr a, std::uint32_t bytes = 4)
    {
        ops.push_back({ThreadOp::Kind::Atomic, bytes, a});
    }

    const std::vector<ThreadOp> &recorded() const { return ops; }
    void clear() { ops.clear(); }

  private:
    std::vector<ThreadOp> ops;
};

/** One warp-level instruction after SIMT lane merging. */
struct WarpInstr
{
    ThreadOp::Kind kind = ThreadOp::Kind::Compute;
    std::uint32_t computeCount = 0;  ///< Compute: instructions
    std::uint32_t bytesPerLane = 4;  ///< mem ops
    /**
     * Mem ops: index of the first of this instruction's `threads`
     * address slots in the owning warp's address pool (slot i holds
     * lane i's address; slots whose laneMask bit is clear are
     * don't-care). Unused by compute ops.
     */
    std::uint32_t addrBase = 0;
    /** Active lanes of a mem op: bit i set means lane i participates. */
    std::uint64_t laneMask = 0;
};

/**
 * Allocator whose value-initialization is a no-op for trivial types,
 * so `resize()` on a vector of them leaves the new elements
 * unwritten. The warp address pool uses it: every slot is written
 * before it is read, so zero-filling them first is wasted work.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };

    using std::allocator<T>::allocator;

    template <typename U>
    void
    construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/**
 * A warp as handed over by the dispatcher: merged instruction stream,
 * its lane-address pool and initial pipeline state. The SM owns one
 * Warp per resident slot and has the source fill a retired one in
 * place, so the vectors keep their capacity from warp to warp. The
 * pipeline state is unpacked into the SM's SoA arrays on refill;
 * only `instrs`, `addrs` and `threads` are read after that.
 */
struct Warp
{
    std::vector<WarpInstr> instrs;
    /** Lane-address pool: each mem op owns `threads` slots. */
    std::vector<Addr, DefaultInitAllocator<Addr>> addrs;
    std::size_t pc = 0;
    std::uint32_t computeLeft = 0; ///< remaining issues of current op
    Tick blockedUntil = 0;
    unsigned threads = 0; ///< active thread count (last warp may be
                          ///< partial)

    bool done() const { return pc >= instrs.size(); }

    /**
     * Append a mem op over the lanes of @p mask and return its
     * `threads` address slots (valid until the next append). Slots
     * outside @p mask read 0; the caller writes the others. Set
     * `threads` first.
     */
    std::span<Addr>
    appendMem(ThreadOp::Kind kind, std::uint64_t mask)
    {
        WarpInstr wi;
        wi.kind = kind;
        wi.addrBase = static_cast<std::uint32_t>(addrs.size());
        wi.laneMask = mask;
        instrs.push_back(wi);
        addrs.resize(addrs.size() + threads);
        Addr *slots = addrs.data() + wi.addrBase;
        for (std::uint64_t m = ~mask & maskLow(threads); m; m &= m - 1)
            slots[ctz64(m)] = 0;
        return {slots, threads};
    }

    /** The address slots of mem op @p wi. */
    std::span<const Addr>
    laneAddrs(const WarpInstr &wi) const
    {
        return {addrs.data() + wi.addrBase, threads};
    }
};

/**
 * Builds one warp of a warp-wide kernel body (`KernelLaunch::
 * warpBody`) straight into its `Warp`. The builder covers threads
 * firstTid() .. firstTid() + lanes() - 1 and holds the mask of live
 * lanes, all of them at first. Each op covers exactly the live
 * lanes; keepIf() retires lanes for good. That contract makes the
 * warp identical to the positional merge of the per-lane programs
 * the body stands for (a live lane records every op, a retired lane
 * has ended its program): a compute of 0 emits nothing, a mem op's
 * bytesPerLane is max(4, bytes), and an op with no live lane emits
 * nothing.
 *
 * The address and predicate functors map a thread id to an address
 * or a keep decision; they are template parameters so they inline.
 */
class WarpBuilder
{
  public:
    /** Bind to the (cleared) warp @p out of threads @p first ..
     *  @p first + @p lanes - 1. */
    WarpBuilder(Warp &out, std::uint64_t first, unsigned lanes)
        : w(out), first(first), n(lanes), liveMask(maskLow(lanes))
    {
        panic_if(lanes == 0 || lanes > 64,
                 "a warp of %u lanes does not fit the 64-bit lane mask",
                 lanes);
        w.threads = lanes;
    }

    std::uint64_t firstTid() const { return first; }
    unsigned lanes() const { return n; }
    /** Bit i set: lane i (thread firstTid() + i) is live. */
    std::uint64_t live() const { return liveMask; }

    /** @p count back-to-back ALU/control instructions. */
    void
    compute(std::uint32_t count)
    {
        if (count == 0 || liveMask == 0)
            return;
        WarpInstr wi;
        wi.computeCount = count;
        w.instrs.push_back(wi);
    }

    /** A global load of @p bytes at addr(tid) per live lane. */
    template <typename F>
    void
    load(std::uint32_t bytes, F &&addr)
    {
        mem(ThreadOp::Kind::Load, bytes, addr);
    }

    /** A global (posted) store of @p bytes at addr(tid). */
    template <typename F>
    void
    store(std::uint32_t bytes, F &&addr)
    {
        mem(ThreadOp::Kind::Store, bytes, addr);
    }

    /** An L2 read-modify-write of @p bytes at addr(tid). */
    template <typename F>
    void
    atomic(std::uint32_t bytes, F &&addr)
    {
        mem(ThreadOp::Kind::Atomic, bytes, addr);
    }

    /** Retire every live lane whose thread fails @p pred. */
    template <typename P>
    void
    keepIf(P &&pred)
    {
        std::uint64_t keep = 0;
        for (std::uint64_t m = liveMask; m; m &= m - 1) {
            const unsigned i = ctz64(m);
            if (pred(first + i))
                keep |= std::uint64_t{1} << i;
        }
        keepLanes(keep);
    }

    /**
     * Retire every live lane outside @p mask. @p mask may name only
     * live lanes (checked in SCUSIM_CHECK builds): a retired lane's
     * program has ended and cannot resume.
     */
    void
    keepLanes(std::uint64_t mask)
    {
        sim_check((mask & ~liveMask) == 0,
                  "warp body keeps lane %u, which is not live",
                  ctz64(mask & ~liveMask));
        liveMask = mask;
    }

  private:
    template <typename F>
    void
    mem(ThreadOp::Kind kind, std::uint32_t bytes, F &addr)
    {
        if (liveMask == 0)
            return;
        const std::span<Addr> slots = w.appendMem(kind, liveMask);
        w.instrs.back().bytesPerLane = std::max<std::uint32_t>(4, bytes);
        if (liveMask == maskLow(n)) {
            for (unsigned i = 0; i < n; ++i)
                slots[i] = addr(first + i);
        } else {
            for (std::uint64_t m = liveMask; m; m &= m - 1) {
                const unsigned i = ctz64(m);
                slots[i] = addr(first + i);
            }
        }
    }

    Warp &w;
    const std::uint64_t first;
    const unsigned n;
    std::uint64_t liveMask;
};

/**
 * A kernel launch: a name, a phase tag, a thread count and one of
 * the two body forms, invoked at warp-activation time.
 */
struct KernelLaunch
{
    std::string name;
    Phase phase = Phase::Processing;
    std::uint64_t numThreads = 0;
    /** Per-lane body: fill @p rec with thread @p tid's work. */
    std::function<void(std::uint64_t tid, ThreadRecorder &rec)> body;
    /** Warp-wide body: build one warp's work through @p b. A launch
     *  sets exactly one of `body` and `warpBody`. */
    std::function<void(WarpBuilder &b)> warpBody;
};

/** Aggregate result of one kernel execution. */
struct KernelStats
{
    std::string name;
    Phase phase = Phase::Processing;
    Tick startTick = 0;
    Tick endTick = 0;
    std::uint64_t threads = 0;
    std::uint64_t warps = 0;
    std::uint64_t warpInstrs = 0;   ///< issued warp instructions
    std::uint64_t threadInstrs = 0; ///< sum of active lanes
    std::uint64_t warpMemInstrs = 0;
    std::uint64_t memTransactions = 0;
    std::uint64_t memLanes = 0;     ///< active lanes of mem instrs

    Tick cycles() const { return endTick - startTick; }

    /** Average transactions per warp memory instruction. */
    double
    txnsPerMemInstr() const
    {
        return warpMemInstrs
                   ? static_cast<double>(memTransactions) /
                         static_cast<double>(warpMemInstrs)
                   : 0;
    }

    /** Coalescing efficiency in (0,1]: lanes served per transaction
     *  relative to a fully coalesced 32-lane access. */
    double
    coalescingEfficiency() const
    {
        return memTransactions
                   ? static_cast<double>(memLanes) /
                         (32.0 *
                          static_cast<double>(memTransactions))
                   : 0;
    }

    void
    accumulate(const KernelStats &o)
    {
        threads += o.threads;
        warps += o.warps;
        warpInstrs += o.warpInstrs;
        threadInstrs += o.threadInstrs;
        warpMemInstrs += o.warpMemInstrs;
        memTransactions += o.memTransactions;
        memLanes += o.memLanes;
    }
};

} // namespace scusim::gpu

#endif // SCUSIM_GPU_KERNEL_HH
