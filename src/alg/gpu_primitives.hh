/**
 * @file
 * GPU-side stream-compaction building blocks — the baseline the SCU
 * replaces. The shapes follow the state-of-the-art CUDA
 * implementations the paper builds on: multi-kernel exclusive scan
 * (CUB-style) followed by a scatter for compaction, and Merrill-style
 * scan + binary-search gather for frontier expansion.
 *
 * Every primitive both computes the functional result and launches
 * the equivalent kernels on the GPU timing model with the true
 * simulated addresses.
 */

#ifndef SCUSIM_ALG_GPU_PRIMITIVES_HH
#define SCUSIM_ALG_GPU_PRIMITIVES_HH

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "mem/address_space.hh"

namespace scusim::alg
{

using Elems = mem::DeviceArray<std::uint32_t>;
using Flags = mem::DeviceArray<std::uint8_t>;

/** Scratch buffers shared by the scan-based primitives. */
struct CompactionScratch
{
    Elems scanned;   ///< per-element exclusive-scan results
    Elems blockSums; ///< per-block partial sums

    CompactionScratch(mem::AddressSpace &as, std::size_t capacity)
    {
        scanned.allocate(as, "scan_scratch", capacity + 1);
        blockSums.allocate(as, "scan_block_sums",
                           capacity / 256 + 2);
    }
};

/** Launch a kernel with a per-lane body (see gpu/kernel.hh). */
gpu::KernelStats
gpuStreamKernel(harness::System &sys, const std::string &name,
                gpu::Phase phase, std::uint64_t threads,
                std::function<void(std::uint64_t,
                                   gpu::ThreadRecorder &)> body,
                DeviceId dev = 0);

/** Launch a kernel with a warp-wide body (see gpu/kernel.hh). */
gpu::KernelStats
gpuWarpKernel(harness::System &sys, const std::string &name,
              gpu::Phase phase, std::uint64_t threads,
              std::function<void(gpu::WarpBuilder &)> body,
              DeviceId dev = 0);

/** WarpBuilder address functor: element tid of @p a. */
template <typename T>
auto
elemAt(const mem::DeviceArray<T> &a)
{
    return [base = a.base()](std::uint64_t tid) -> Addr {
        return base + tid * sizeof(T);
    };
}

/** WarpBuilder address functor: element idx[tid] + @p off of @p a. */
template <typename T>
auto
elemAt(const mem::DeviceArray<T> &a, const Elems &idx,
       std::size_t off = 0)
{
    return [&a, &idx, off](std::uint64_t tid) -> Addr {
        return a.addrOf(idx[tid] + off);
    };
}

/** One input/output pair of a multi-stream compaction. */
struct CompactStream
{
    const Elems *in;
    Elems *out;
};

/**
 * GPU stream compaction: exclusive scan of @p flags (two kernels)
 * plus a scatter kernel appending, for every i < n with
 * flags[i] != 0, each stream's in[i] to its out at a common packed
 * position starting at @p out_n.
 *
 * @return number of elements kept (out_n is advanced by it).
 */
std::size_t gpuCompact(harness::System &sys,
                       std::span<const CompactStream> streams,
                       const Flags &flags, std::size_t n,
                       std::size_t &out_n, CompactionScratch &scratch,
                       const std::string &name, DeviceId dev = 0);

/** One output stream of a GPU expansion. */
struct ExpandOutput
{
    /** Most loads one output element may cost. */
    static constexpr unsigned maxLoads = 2;

    Elems *out;
    /** 4-byte loads producing one element costs on the GPU. */
    unsigned loads = 1;
    /**
     * Produce the value of output element (i, j) — input element i,
     * offset j within its run — and write the simulated addresses of
     * its `loads` loads, in issue order, to @p addrs.
     */
    std::function<std::uint32_t(std::size_t i, std::uint32_t j,
                                Addr *addrs)> value;
};

/**
 * The gather kernel of gpuExpand over the exclusive scan @p scanned
 * of n run lengths (scanned[n] threads): one thread per produced
 * element, writing every output stream. The launch refers to
 * @p scanned and @p outputs, which must outlive it.
 */
gpu::KernelLaunch expandGather(const Elems &scanned, std::size_t n,
                               std::span<const ExpandOutput> outputs,
                               const std::string &name);

/**
 * GPU frontier expansion (Merrill): exclusive scan of @p counts, then
 * a gather kernel of one thread per produced element that locates its
 * source run by binary search over the scanned offsets and writes
 * every output stream.
 *
 * @return total elements produced.
 */
std::size_t gpuExpand(harness::System &sys, const Elems &counts,
                      std::size_t n,
                      std::span<const ExpandOutput> outputs,
                      CompactionScratch &scratch,
                      const std::string &name, DeviceId dev = 0);

} // namespace scusim::alg

#endif // SCUSIM_ALG_GPU_PRIMITIVES_HH
