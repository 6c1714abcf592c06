#include "alg/gpu_primitives.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace scusim::alg
{

namespace
{
constexpr unsigned scanBlock = 256;
} // namespace

gpu::KernelStats
gpuStreamKernel(harness::System &sys, const std::string &name,
                gpu::Phase phase, std::uint64_t threads,
                std::function<void(std::uint64_t,
                                   gpu::ThreadRecorder &)> body,
                DeviceId dev)
{
    gpu::KernelLaunch k;
    k.name = name;
    k.phase = phase;
    k.numThreads = threads;
    k.body = std::move(body);
    return sys.gpuDevice(dev).launch(k);
}

gpu::KernelStats
gpuWarpKernel(harness::System &sys, const std::string &name,
              gpu::Phase phase, std::uint64_t threads,
              std::function<void(gpu::WarpBuilder &)> body,
              DeviceId dev)
{
    gpu::KernelLaunch k;
    k.name = name;
    k.phase = phase;
    k.numThreads = threads;
    k.warpBody = std::move(body);
    return sys.gpuDevice(dev).launch(k);
}

/**
 * Shared scan machinery: charges the two scan kernels over the first
 * @p n elements of @p in and fills @p scratch.scanned functionally
 * with the exclusive scan of the values @p value_of yields.
 */
template <typename T>
static void
gpuScan(harness::System &sys, const mem::DeviceArray<T> &in,
        std::size_t n, CompactionScratch &scratch,
        const std::string &name,
        const std::function<std::uint32_t(std::size_t)> &value_of,
        DeviceId dev)
{
    // Functional exclusive scan.
    std::uint32_t running = 0;
    for (std::size_t i = 0; i < n; ++i) {
        scratch.scanned[i] = running;
        running += value_of(i);
    }
    scratch.scanned[n] = running;

    // Kernel 1: block-local scan. Each thread loads its input,
    // participates in a shared-memory tree scan (~8 ops) and stores
    // its local prefix; a block's last thread stores the block sum.
    gpuWarpKernel(
        sys, name + "_scan_local", gpu::Phase::Compaction, n,
        [&](gpu::WarpBuilder &w) {
            w.load(sizeof(T), elemAt(in));
            w.compute(18);
            w.store(4, elemAt(scratch.scanned));
            w.keepIf([&](std::uint64_t t) {
                return t % scanBlock == scanBlock - 1 || t == n - 1;
            });
            w.store(4, [&](std::uint64_t t) {
                return scratch.blockSums.addrOf(t / scanBlock);
            });
        },
        dev);

    // Kernel 2: scan of the per-block sums + propagation. One thread
    // per block: loads its block sum, adds the running offset and
    // rewrites the block's prefix base.
    const std::uint64_t blocks = divCeil(n, scanBlock);
    gpuWarpKernel(
        sys, name + "_scan_blocks", gpu::Phase::Compaction, blocks,
        [&](gpu::WarpBuilder &w) {
            w.load(4, elemAt(scratch.blockSums));
            w.compute(12);
            w.store(4, elemAt(scratch.blockSums));
        },
        dev);
}

std::size_t
gpuCompact(harness::System &sys,
           std::span<const CompactStream> streams, const Flags &flags,
           std::size_t n, std::size_t &out_n,
           CompactionScratch &scratch, const std::string &name,
           DeviceId dev)
{
    panic_if(streams.empty(), "gpuCompact with no streams");
    panic_if(scratch.scanned.size() < n + 1,
             "compaction scratch too small (%zu < %zu)",
             scratch.scanned.size(), n + 1);

    gpuScan(
        sys, flags, n, scratch, name,
        [&](std::size_t i) -> std::uint32_t {
            return flags[i] ? 1 : 0;
        },
        dev);

    // Functional scatter.
    const std::size_t base = out_n;
    for (std::size_t t = 0; t < n; ++t) {
        if (!flags[t])
            continue;
        const std::size_t pos = base + scratch.scanned[t];
        for (const auto &s : streams) {
            panic_if(pos >= s.out->size(), "gpuCompact output overflow");
            (*s.out)[pos] = (*s.in)[t];
        }
    }

    // Scatter kernel: every flagged element copies each stream's
    // value to the packed position.
    gpuWarpKernel(
        sys, name + "_scatter", gpu::Phase::Compaction, n,
        [&](gpu::WarpBuilder &w) {
            w.load(1, elemAt(flags));
            w.load(4, elemAt(scratch.scanned));
            w.compute(12);
            w.keepIf([&](std::uint64_t t) { return flags[t] != 0; });
            for (const auto &s : streams) {
                w.load(4, elemAt(*s.in));
                w.store(4, [&](std::uint64_t t) {
                    return s.out->addrOf(base + scratch.scanned[t]);
                });
            }
        },
        dev);

    const std::size_t kept = scratch.scanned[n];
    out_n += kept;
    return kept;
}

gpu::KernelLaunch
expandGather(const Elems &scanned, std::size_t n,
             std::span<const ExpandOutput> outputs,
             const std::string &name)
{
    for (const auto &o : outputs)
        panic_if(o.loads > ExpandOutput::maxLoads,
                 "expansion output with %u loads per element", o.loads);

    gpu::KernelLaunch k;
    k.name = name;
    k.phase = gpu::Phase::Compaction;
    k.numThreads = scanned[n];
    // The Merrill load-balancing search is CTA-cooperative: a coarse
    // partition is found once per CTA and refined in shared memory,
    // so each thread pays a couple of probing loads into the scanned
    // offsets plus the refinement compute — not a full per-thread
    // binary search over global memory.
    k.warpBody = [&scanned, n, outputs](gpu::WarpBuilder &w) {
        const std::uint64_t first = w.firstTid();
        const unsigned lanes = w.lanes();

        // Owner lookup (functional, exact): thread t belongs to the
        // last run i with scanned[i] <= t. One binary search for the
        // first lane; the others walk forward over empty runs. The
        // owner stays below n because t < scanned[n].
        const std::uint32_t *sc = scanned.host().data();
        std::size_t i = static_cast<std::size_t>(
            std::upper_bound(sc, sc + n + 1,
                             static_cast<std::uint32_t>(first)) -
            sc) - 1;
        std::size_t owner[64];
        std::uint32_t offset[64];
        for (unsigned l = 0; l < lanes; ++l) {
            const auto t = static_cast<std::uint32_t>(first + l);
            while (sc[i + 1] <= t)
                ++i;
            owner[l] = i;
            offset[l] = t - sc[i];
        }

        // Timing: two probes into the scanned array around the
        // owning run plus the shared-memory refinement.
        w.load(4, [&](std::uint64_t t) {
            return scanned.addrOf(owner[t - first]);
        });
        w.load(4, [&](std::uint64_t t) {
            return scanned.addrOf(owner[t - first] + 1);
        });
        w.compute(24);

        for (const auto &o : outputs) {
            panic_if(first + lanes > o.out->size(),
                     "gpuExpand output overflow");
            Addr addrs[64][ExpandOutput::maxLoads];
            for (unsigned l = 0; l < lanes; ++l)
                (*o.out)[first + l] =
                    o.value(owner[l], offset[l], addrs[l]);
            for (unsigned j = 0; j < o.loads; ++j)
                w.load(4, [&](std::uint64_t t) {
                    return addrs[t - first][j];
                });
            w.store(4, elemAt(*o.out));
        }
    };
    return k;
}

std::size_t
gpuExpand(harness::System &sys, const Elems &counts, std::size_t n,
          std::span<const ExpandOutput> outputs,
          CompactionScratch &scratch, const std::string &name,
          DeviceId dev)
{
    panic_if(outputs.empty(), "gpuExpand with no outputs");
    panic_if(scratch.scanned.size() < n + 1,
             "expansion scratch too small");

    gpuScan(
        sys, counts, n, scratch, name,
        [&](std::size_t i) -> std::uint32_t { return counts[i]; },
        dev);

    // Gather kernel: one thread per produced element.
    sys.gpuDevice(dev).launch(
        expandGather(scratch.scanned, n, outputs, name + "_gather"));
    return scratch.scanned[n];
}

} // namespace scusim::alg
