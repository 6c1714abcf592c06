#include "gpu/gpu.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "trace/trace.hh"

namespace scusim::gpu
{

Gpu::Gpu(const GpuParams &params, mem::MemSystem &mem,
         sim::Simulation &simulation, stats::StatGroup *parent)
    : p(params), sim(simulation), grp("gpu", parent),
      nextWarp(p.numSms)
{
    for (unsigned i = 0; i < p.numSms; ++i) {
        sms.push_back(std::make_unique<StreamingMultiprocessor>(
            p, i, &mem, &grp));
        sms.back()->l1().setClock(&sim);
        sim.addClocked(sms.back().get(),
                       "sm" + std::to_string(i));
    }
}

void
Gpu::attachTrace(trace::TraceSink &sink, const std::string &prefix)
{
    traceChan = sink.channel(prefix + "gpu");
    for (std::size_t i = 0; i < sms.size(); ++i)
        sms[i]->setTraceChannel(
            sink.channel(prefix + "sm" + std::to_string(i)));
}

void
mergeLanes(std::span<const ThreadOp> ops,
           std::span<const std::uint32_t> laneEnd, Warp &out)
{
    const std::size_t n = laneEnd.size();
    panic_if(n > 64, "a warp of %zu lanes exceeds the 64-bit lane mask",
             n);
    out.threads = static_cast<unsigned>(n);

    // pos[i] is lane i's next op; `live` holds the lanes with ops
    // left, so the leader is its lowest set bit.
    std::uint32_t pos[64];
    std::uint64_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
        pos[i] = i ? laneEnd[i - 1] : 0;
        if (pos[i] < laneEnd[i])
            live |= std::uint64_t{1} << i;
    }

    while (live) {
        const ThreadOp::Kind kind = ops[pos[ctz64(live)]].kind;
        if (kind == ThreadOp::Kind::Compute) {
            WarpInstr wi;
            for (std::uint64_t m = live; m; m &= m - 1) {
                const unsigned i = ctz64(m);
                const ThreadOp &op = ops[pos[i]];
                if (op.kind != kind)
                    continue;
                wi.computeCount = std::max(wi.computeCount, op.count);
                if (++pos[i] == laneEnd[i])
                    live &= ~(std::uint64_t{1} << i);
            }
            if (wi.computeCount == 0)
                wi.computeCount = 1;
            out.instrs.push_back(wi);
            continue;
        }
        // Slot-per-lane handoff: lane i's address lives in slot i,
        // the mask says which slots participate.
        std::uint64_t mask = 0;
        for (std::uint64_t m = live; m; m &= m - 1) {
            if (ops[pos[ctz64(m)]].kind == kind)
                mask |= m & -m;
        }
        const std::span<Addr> slots = out.appendMem(kind, mask);
        WarpInstr &wi = out.instrs.back();
        for (std::uint64_t m = mask; m; m &= m - 1) {
            const unsigned i = ctz64(m);
            const ThreadOp &op = ops[pos[i]];
            slots[i] = op.addr;
            wi.bytesPerLane = std::max(wi.bytesPerLane, op.count);
            if (++pos[i] == laneEnd[i])
                live &= ~(std::uint64_t{1} << i);
        }
    }
}

void
Gpu::buildWarp(const KernelLaunch &k, std::uint64_t warp_id, Warp &out)
{
    const std::uint64_t first = warp_id * p.warpSize;
    const std::uint64_t last =
        std::min<std::uint64_t>(first + p.warpSize, k.numThreads);

    if (k.warpBody) {
        WarpBuilder b(out, first, static_cast<unsigned>(last - first));
        k.warpBody(b);
        return;
    }

    // Record every lane into one flat buffer, then merge.
    laneOps.clear();
    laneEnd.clear();
    for (std::uint64_t tid = first; tid < last; ++tid) {
        k.body(tid, laneOps);
        laneEnd.push_back(
            static_cast<std::uint32_t>(laneOps.recorded().size()));
    }
    mergeLanes(laneOps.recorded(), laneEnd, out);
}

KernelStats
Gpu::launch(const KernelLaunch &k)
{
    KernelStats ks;
    ks.name = k.name;
    ks.phase = k.phase;

    // Host-side launch latency.
    sim.step(launchOverhead());
    ks.startTick = sim.now();

    if (k.numThreads > 0) {
        panic_if(!k.body == !k.warpBody,
                 "kernel %s must set exactly one of body and warpBody",
                 k.name.c_str());
        kernel = &k;
        numWarps = (k.numThreads + p.warpSize - 1) / p.warpSize;

        // Warp w runs on SM (w % numSms); each SM pulls its next warp
        // lazily when a slot frees up.
        for (unsigned s = 0; s < p.numSms; ++s) {
            nextWarp[s] = s;
            sms[s]->beginKernel(
                [this, s](Warp &out) {
                    if (nextWarp[s] >= numWarps)
                        return false;
                    buildWarp(*kernel, nextWarp[s], out);
                    nextWarp[s] += p.numSms;
                    return true;
                },
                &ks);
        }
        sim.run();
        for (auto &sm : sms)
            sm->endKernel(sim.now());
    }

    ks.endTick = sim.now();
    TRACE_EVENT_SPAN(traceChan, trace::Category::Kernel,
                     ks.name.empty() ? std::string("kernel") : ks.name,
                     ks.startTick, ks.endTick, k.numThreads);

    ++agg.launches;
    if (k.phase == Phase::Compaction) {
        agg.compaction.accumulate(ks);
        agg.compactionCycles += ks.cycles();
    } else {
        agg.processing.accumulate(ks);
        agg.processingCycles += ks.cycles();
    }
    return ks;
}

double
Gpu::smActiveCycles() const
{
    double c = 0;
    for (const auto &sm : sms)
        c += sm->activeCycles();
    return c;
}

double
Gpu::l1Accesses() const
{
    double c = 0;
    for (const auto &sm : sms)
        c += sm->l1().numAccesses();
    return c;
}

} // namespace scusim::gpu
