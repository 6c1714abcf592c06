/**
 * @file
 * The "device kernel" interface of the GPU timing model. A kernel is
 * a C++ functor that, for each logical thread, records the thread's
 * compute-instruction count and the exact simulated memory addresses
 * it touches. The same code computes the functional result, so the
 * timing model always sees the addresses the real algorithm would
 * issue, with all of its divergence and (lack of) coalescing.
 */

#ifndef SCUSIM_GPU_KERNEL_HH
#define SCUSIM_GPU_KERNEL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

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
 * Recorder handed to a kernel body for one thread. Operations are
 * replayed in order by the SIMT pipeline, positionally merged across
 * the 32 lanes of a warp. The warp builder records all lanes of a
 * warp back to back into one recorder, so a body only ever appends.
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

/**
 * A kernel launch: a name, a phase tag, a thread count and a body
 * invoked once per thread at warp-activation time.
 */
struct KernelLaunch
{
    std::string name;
    Phase phase = Phase::Processing;
    std::uint64_t numThreads = 0;
    /** Body: fill @p rec with thread @p tid's work. */
    std::function<void(std::uint64_t tid, ThreadRecorder &rec)> body;
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
