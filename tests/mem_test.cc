/**
 * @file
 * Unit tests for the memory hierarchy: address space, coalescer,
 * cache behaviour (hits, LRU, writebacks, MSHRs, way-locking,
 * streaming bypass, in-flight fill merging) and the DRAM timing
 * model (bandwidth cap, row buffer locality).
 */

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "mem/dram.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::mem;

TEST(AddressSpace, LineAlignedAllocations)
{
    AddressSpace as(1 << 20, 128);
    Addr a = as.alloc("a", 5);
    Addr b = as.alloc("b", 300);
    EXPECT_EQ(a % 128, 0u);
    EXPECT_EQ(b % 128, 0u);
    EXPECT_GE(b, a + 128); // no line sharing
    EXPECT_EQ(as.find(a)->name, "a");
    EXPECT_EQ(as.find(b + 200)->name, "b");
    EXPECT_EQ(as.find(b + 512), nullptr);
}

TEST(AddressSpace, ExhaustionIsFatal)
{
    AddressSpace as(4096, 128);
    EXPECT_DEATH(as.alloc("big", 1 << 20), "exhausted");
}

TEST(DeviceArray, AddressMath)
{
    AddressSpace as(1 << 20, 128);
    DeviceArray<std::uint32_t> arr(as, "arr", 100);
    EXPECT_EQ(arr.size(), 100u);
    EXPECT_EQ(arr.addrOf(0), arr.base());
    EXPECT_EQ(arr.addrOf(7), arr.base() + 28);
    arr[3] = 99;
    EXPECT_EQ(arr[3], 99u);
}

namespace
{

/** Resident bytes of the mapped range [p, p + bytes). */
std::size_t
residentBytes(const void *p, std::size_t bytes)
{
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> vec((bytes + page - 1) / page);
    EXPECT_EQ(mincore(const_cast<void *>(p), bytes, vec.data()), 0);
    std::size_t resident = 0;
    for (unsigned char v : vec)
        resident += (v & 1) ? page : 0;
    return resident;
}

} // namespace

TEST(DeviceArray, ReadsAreZero)
{
    AddressSpace as(1 << 24, 128);
    DeviceArray<std::uint32_t> a(as, "a", 5000);
    DeviceArray<double> d(as, "d", 700);
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], 0u) << i;
    for (std::size_t i = 0; i < d.size(); ++i)
        ASSERT_EQ(d[i], 0.0) << i;
    a[17] = 3;
    a.allocate(as, "a2", 5000);
    EXPECT_EQ(a[17], 0u);
}

TEST(DeviceArray, ResidencyIsLazy)
{
    constexpr std::size_t bytes = 64ULL << 20;
    constexpr std::size_t hugePage = 2ULL << 20;
    AddressSpace as;
    DeviceArray<std::uint8_t> a(as, "big", bytes);
    const void *p = a.host().data();
    EXPECT_EQ(residentBytes(p, bytes), 0u);

    // Each write touches a different 2 MB stretch, so even with
    // transparent huge pages on it faults in at most one huge page.
    constexpr std::size_t writes = 5;
    for (std::size_t k = 0; k < writes; ++k)
        a[k * (bytes / writes)] = 1;
    const std::size_t resident = residentBytes(p, bytes);
    EXPECT_GT(resident, 0u);
    EXPECT_LE(resident, writes * hugePage);
}

TEST(DeviceArray, MoveKeepsAddressesAndEmptiesSource)
{
    AddressSpace as(1 << 20, 128);
    DeviceArray<std::uint32_t> a(as, "a", 100);
    a[5] = 7;
    const Addr base = a.base();
    const std::uint32_t *data = a.host().data();

    DeviceArray<std::uint32_t> b(std::move(a));
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.host().data(), nullptr);
    EXPECT_EQ(b.size(), 100u);
    EXPECT_EQ(b.base(), base);
    EXPECT_EQ(b.addrOf(5), base + 20);
    EXPECT_EQ(b.host().data(), data);
    EXPECT_EQ(b[5], 7u);

    DeviceArray<std::uint32_t> c(as, "c", 10);
    c = std::move(b);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(c.size(), 100u);
    EXPECT_EQ(c.base(), base);
    EXPECT_EQ(c[5], 7u);
}

TEST(DeviceArray, ReallocateReleasesOldMapping)
{
    constexpr std::size_t bytes = 16ULL << 20;
    AddressSpace as(1 << 30, 128);
    DeviceArray<std::uint8_t> a(as, "a", bytes);
    void *old = a.host().data();
    a[0] = 1;
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> vec(bytes / page);

    a.allocate(as, "b", 1);
    // The old range now holds at most the new one-page mapping, so
    // some of it is unmapped.
    errno = 0;
    EXPECT_EQ(mincore(old, bytes, vec.data()), -1);
    EXPECT_EQ(errno, ENOMEM);
    EXPECT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0], 0u);
}

TEST(DeviceArray, ZeroLengthHasNoMapping)
{
    AddressSpace as(1 << 20, 128);
    DeviceArray<std::uint32_t> a(as, "none", 0);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.host().data(), nullptr);
    EXPECT_EQ(a.base() % 128, 0u);

    a.allocate(as, "some", 8);
    EXPECT_NE(a.host().data(), nullptr);
    a.allocate(as, "none again", 0);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.host().data(), nullptr);
}

TEST(Coalescer, FullyCoalescedWarp)
{
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(0x1000 + i * 4);
    std::vector<Addr> out;
    EXPECT_EQ(coalesceLanes(lanes, maskLow(32), 128, out), 1u);
    EXPECT_EQ(out[0], Addr{0x1000});
}

TEST(Coalescer, FullyDivergentWarp)
{
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(i * 4096);
    std::vector<Addr> out;
    EXPECT_EQ(coalesceLanes(lanes, maskLow(32), 128, out), 32u);
}

TEST(Coalescer, MaskSelectsActiveLanes)
{
    // Slot-per-lane span: only the masked slots participate, the
    // rest are don't-care (and deliberately colliding here).
    std::vector<Addr> lanes(8, 0);
    lanes[1] = 0x1000;
    lanes[3] = 0x1040;
    lanes[6] = 0x1080;
    std::vector<Addr> out;
    const std::uint64_t active = (1u << 1) | (1u << 3) | (1u << 6);
    EXPECT_EQ(coalesceLanes(lanes, active, 128, out), 2u);
    EXPECT_EQ(out, (std::vector<Addr>{0x1000, 0x1080}));
}

TEST(Coalescer, MaskBitsPastSpanAreIgnored)
{
    std::vector<Addr> lanes{0x0, 0x1000, 0x2000};
    std::vector<Addr> out;
    EXPECT_EQ(appendUniqueAddrs(lanes, ~std::uint64_t{0}, out), 3u);
    EXPECT_EQ(out.size(), 3u);
}

TEST(Coalescer, FirstTouchOrderUnderMask)
{
    // Lane order — not value order — decides output order, and a
    // value reappearing after unrelated lanes is still a duplicate
    // (the membership table, not just the prev-value run check).
    std::vector<Addr> lanes{0x300, 0x100, 0x100, 0x200,
                            0x100, 0x300, 0x050};
    std::vector<Addr> out;
    const std::uint64_t all = maskLow(7);
    EXPECT_EQ(appendUniqueAddrs(lanes, all, out), 4u);
    EXPECT_EQ(out, (std::vector<Addr>{0x300, 0x100, 0x200, 0x050}));
}

TEST(Coalescer, FullTableOf32DistinctValues)
{
    // 32 distinct values is the membership table's capacity limit
    // (64 slots, load factor 1/2): all insert, order preserved.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back((31 - i) * 4096);
    std::vector<Addr> out;
    EXPECT_EQ(appendUniqueAddrs(lanes, maskLow(32), out), 32u);
    for (Addr i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], (31 - i) * 4096);
}

TEST(Coalescer, WideMaskFallsBackToLinearRescan)
{
    // >32 active lanes exceed the table's load-factor budget and run
    // the linear-rescan path; dedup and order must be unchanged.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 48; ++i)
        lanes.push_back((i % 20) * 4096);
    std::vector<Addr> out;
    EXPECT_EQ(appendUniqueAddrs(lanes, maskLow(48), out), 20u);
    for (Addr i = 0; i < 20; ++i)
        EXPECT_EQ(out[i], i * 4096);
}

TEST(Coalescer, StatsEfficiency)
{
    CoalesceStats cs;
    cs.record(32, 1);
    EXPECT_DOUBLE_EQ(cs.efficiency(), 1.0);
    cs.record(32, 32);
    EXPECT_DOUBLE_EQ(cs.txnsPerInstr(), 16.5);
    EXPECT_NEAR(cs.efficiency(), 64.0 / (32.0 * 33.0), 1e-12);
}

namespace
{

/** Fixed-latency backing store standing in for DRAM. */
class FakeMem : public MemLevel
{
  public:
    MemResult
    access(Tick issue, Addr, AccessKind kind, unsigned) override
    {
        ++accesses;
        if (kind == AccessKind::Write ||
            kind == AccessKind::WriteNoAlloc) {
            ++writes;
            return {issue + 1, false};
        }
        ++reads;
        return {issue + 200, false};
    }

    int accesses = 0, reads = 0, writes = 0;
};

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "c";
    p.sizeBytes = 4 << 10; // 4 KB: 2 sets x 16 ways x 128 B
    p.lineBytes = 128;
    p.ways = 16;
    p.banks = 1;
    p.hitLatency = 10;
    p.mshrs = 8;
    return p;
}

} // namespace

TEST(MatchTag, AgreesWithNaiveScan)
{
    // Rows of 1, 4, 12 and 16 ways (one padded to a group of four;
    // 16 has a path of its own), with invalid and padding ways, keys
    // that are absent or present once, and tags near the top of 32
    // bits and of a 4 GB device's 2^25 lines, where a signed or
    // narrowed compare would go wrong.
    const std::uint32_t invalid = ~std::uint32_t{0};
    Rng rng(0x7a95);
    auto draw = [&rng] {
        switch (rng.below(4)) {
          case 0:
            return static_cast<std::uint32_t>(invalid - 1 -
                                              rng.below(8));
          case 1:
            return static_cast<std::uint32_t>((1u << 25) - 1 -
                                              rng.below(8));
          case 2:
            return static_cast<std::uint32_t>(0x80000000u ^
                                              rng.below(8));
          default:
            return static_cast<std::uint32_t>(rng.below(4096));
        }
    };
    for (unsigned ways : {1u, 4u, 12u, 16u}) {
        const unsigned width = (ways + 3) / 4 * 4;
        unsigned hits = 0, misses = 0;
        for (int k = 0; k < 20000; ++k) {
            std::vector<std::uint32_t> row(width, invalid);
            for (unsigned w = 0; w < ways; ++w) {
                if (rng.chance(0.2))
                    continue; // an invalid way
                std::uint32_t t;
                do {
                    t = draw();
                } while (std::find(row.begin(), row.end(), t) !=
                         row.end());
                row[w] = t;
            }
            // Half the keys are taken from a valid way of the row.
            std::uint32_t key =
                rng.chance(0.5) ? row[rng.below(ways)] : invalid;
            if (key == invalid)
                key = draw();
            unsigned want = width;
            for (unsigned w = 0; w < width; ++w) {
                if (row[w] == key) {
                    want = w;
                    break;
                }
            }
            ASSERT_EQ(matchTag(row.data(), width, key), want)
                << ways << " ways, trial " << k;
            ASSERT_EQ(matchTagScalar(row.data(), width, key), want)
                << ways << " ways, trial " << k;
            want < width ? ++hits : ++misses;
        }
        EXPECT_GT(hits, 1000u) << ways << " ways";
        EXPECT_GT(misses, 1000u) << ways << " ways";
    }
}

TEST(Cache, MissThenHit)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    auto r1 = c.access(0, 0x1000, AccessKind::Read, 128);
    EXPECT_FALSE(r1.hit);
    EXPECT_GE(r1.complete, 200u);

    auto r2 = c.access(r1.complete, 0x1000, AccessKind::Read, 128);
    EXPECT_TRUE(r2.hit);
    EXPECT_LE(r2.complete, r1.complete + 12);
    EXPECT_EQ(dram.reads, 1);
}

TEST(Cache, LruEviction)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    Cache c(p, &dram, &g);

    // Fill far more distinct lines than the cache holds, then
    // re-touch the first: it must miss again.
    Tick t = 0;
    for (Addr a = 0; a < 64; ++a)
        t = c.access(t, a * 128, AccessKind::Read, 128).complete;
    int reads_before = dram.reads;
    auto r = c.access(t, 0, AccessKind::Read, 128);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(dram.reads, reads_before + 1);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    c.access(0, 0x0, AccessKind::Write, 128);
    // Evict everything by streaming reads.
    Tick t = 1000;
    for (Addr a = 1; a < 80; ++a)
        t = c.access(t, a * 128, AccessKind::Read, 128).complete;
    EXPECT_GE(c.numWritebacks(), 1.0);
    EXPECT_GE(dram.writes, 1);
}

TEST(Cache, WriteValidateSkipsFetch)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    // A full-line store on a miss must not read from downstream.
    auto r = c.access(0, 0x2000, AccessKind::Write, 128);
    EXPECT_EQ(dram.reads, 0);
    EXPECT_LE(r.complete, 5u);
    // And the line is now present.
    auto r2 = c.access(10, 0x2000, AccessKind::Read, 128);
    EXPECT_TRUE(r2.hit);
}

TEST(Cache, ReadNoAllocBypasses)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    auto r1 = c.access(0, 0x3000, AccessKind::ReadNoAlloc, 128);
    EXPECT_FALSE(r1.hit);
    // Second streaming read of the same line misses again: nothing
    // was allocated.
    auto r2 = c.access(r1.complete, 0x3000, AccessKind::ReadNoAlloc,
                       128);
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(dram.reads, 2);
}

TEST(Cache, ReadNoAllocStillHits)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    c.access(0, 0x3000, AccessKind::Read, 128);       // allocate
    auto r = c.access(500, 0x3000, AccessKind::ReadNoAlloc, 128);
    EXPECT_TRUE(r.hit);
}

TEST(Cache, ProtectedRegionSurvivesStreaming)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    // Pin [0, 2KB); bring one pinned line in.
    c.setProtectedRegion(0, 2048);
    Tick t = c.access(0, 0x0, AccessKind::Read, 128).complete;

    // Stream a large number of unpinned lines over it.
    for (Addr a = 1 << 16; a < (1 << 16) + 200 * 128; a += 128)
        t = c.access(t, a, AccessKind::Read, 128).complete;

    auto r = c.access(t, 0x0, AccessKind::Read, 128);
    EXPECT_TRUE(r.hit) << "pinned line was evicted by streaming";
}

TEST(Cache, MshrLimitDelaysBursts)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    p.mshrs = 2;
    Cache c(p, &dram, &g);

    // Issue 6 distinct misses at tick 0: with 2 MSHRs and a 200
    // cycle downstream, later ones must wait for slots.
    Tick last = 0;
    for (Addr a = 0; a < 6; ++a) {
        auto r = c.access(0, a * 128, AccessKind::Read, 128);
        last = std::max(last, r.complete);
    }
    EXPECT_GT(last, 400u);
}

TEST(CacheInflight, HitOnFillInFlightCompletesAtFillTick)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    // The miss installs the line at once; its fill lands at 200.
    const auto miss = c.access(0, 0x1000, AccessKind::Read, 128);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.complete, 200u + smallCache().hitLatency);
    // A hit while the fill is in flight waits for the fill itself.
    const auto merged = c.access(5, 0x1000, AccessKind::Read, 128);
    EXPECT_TRUE(merged.hit);
    EXPECT_EQ(merged.complete, 200u);
    EXPECT_EQ(dram.reads, 1);
}

TEST(CacheInflight, HitAfterFillCostsHitLatency)
{
    FakeMem dram;
    stats::StatGroup g("t");
    const CacheParams p = smallCache();
    Cache c(p, &dram, &g);

    c.access(0, 0x1000, AccessKind::Read, 128); // fill lands at 200
    const auto late = c.access(300, 0x1000, AccessKind::Read, 128);
    EXPECT_TRUE(late.hit);
    EXPECT_EQ(late.complete, 300 + p.hitLatency);
}

TEST(CacheInflight, InvalidateAllForgetsFillsInFlight)
{
    const CacheParams p = smallCache();
    // A write-validate store re-installs the line without a fill, so
    // a following read hit waits only if the old fill is remembered.
    auto reread = [&p](bool invalidate) {
        FakeMem dram;
        stats::StatGroup g("t");
        Cache c(p, &dram, &g);
        c.access(0, 0x1000, AccessKind::Read, 128); // fill at 200
        if (invalidate)
            c.invalidateAll(1);
        c.access(2, 0x1000, AccessKind::Write, 128);
        const auto r = c.access(5, 0x1000, AccessKind::Read, 128);
        EXPECT_TRUE(r.hit);
        return r.complete;
    };
    EXPECT_EQ(reread(false), 200u);
    EXPECT_EQ(reread(true), 5 + p.hitLatency);
}

TEST(CompletionRing, RandomOpsMatchPriorityQueue)
{
    // The sorted ring against the min-heap it replaced, driven the
    // way the MSHR and load-budget callers drive it: purge-up-to-t
    // with t running backwards as well as forwards, pushes below an
    // earlier purge tick, pop-min, and bursts that hold the ring at
    // its bound (a push into a full ring pops the minimum first, as
    // the callers do). size() and the minimum must agree after every
    // step.
    using Heap =
        std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>;
    for (const std::size_t cap : {1u, 16u, 256u}) {
        SCOPED_TRACE(cap);
        CompletionRing ring(cap);
        Heap heap;
        Rng rng(0x5eed + cap);
        Tick now = 1000, last_cut = 0;
        std::uint64_t backward = 0, below_cut = 0, at_cap = 0;
        for (int k = 0; k < 100000; ++k) {
            // Alternate bursts (time barely moves, so the ring fills)
            // with drains.
            const bool burst = (k / 4096) % 2 == 0;
            if (!burst || rng.chance(0.02))
                now += rng.below(8);
            const std::uint64_t op = rng.below(100);
            if (op < (burst ? 70u : 35u)) {
                Tick t = now + rng.below(600);
                if (rng.chance(0.1)) {
                    t = last_cut - std::min(last_cut, rng.below(64));
                    ++below_cut;
                }
                if (heap.size() == cap) {
                    heap.pop();
                    ring.popMin();
                }
                heap.push(t);
                ring.push(t);
            } else if (op < 90) {
                const Tick cut = now + rng.below(300) - rng.below(300);
                backward += cut < last_cut;
                last_cut = cut;
                while (!heap.empty() && heap.top() <= cut)
                    heap.pop();
                ring.purgeUpTo(cut);
            } else if (!heap.empty()) {
                heap.pop();
                ring.popMin();
            }
            ASSERT_EQ(ring.size(), heap.size()) << "op " << k;
            if (!heap.empty()) {
                ASSERT_EQ(ring.min(), heap.top()) << "op " << k;
            }
            at_cap += heap.size() == cap;
        }
        // Drain what is left in order.
        while (!heap.empty()) {
            ASSERT_EQ(ring.min(), heap.top());
            heap.pop();
            ring.popMin();
        }
        EXPECT_EQ(ring.size(), 0u);
        EXPECT_GT(backward, 1000u);
        EXPECT_GT(below_cut, 1000u);
        EXPECT_GT(at_cap, 1000u) << "the ring never ran full";
    }
}

TEST(InflightTable, RandomOpsMatchUnorderedMap)
{
    // The table's own mechanics against a std::unordered_map: probing,
    // growth, backward-shift erase, threshold purge and the
    // generation-stamped clear. The cache-level trace below only sees
    // entries that a later hit consults; this sees every entry.
    // Fill ticks include 0 (a reordered completion can clamp there)
    // and values at the packing bound; clears come in bursts, so the
    // generation wraps hundreds of times.
    InflightTable t;
    std::unordered_map<Addr, Tick> model;
    Rng rng(0x7ab1e);
    const Tick top = InflightTable::kTickLimit - 1;
    auto tick = [&rng, top] {
        const std::uint64_t r = rng.below(100);
        if (r < 3)
            return Tick{0};
        if (r < 6)
            return top - rng.below(4);
        return Tick{rng.below(1 << 16)};
    };
    std::size_t peak = 0;
    std::uint64_t clears = 0, zero_fills = 0, top_fills = 0;
    for (int k = 0; k < 200000; ++k) {
        const Addr line = rng.below(1 << 12) * 128;
        const std::uint64_t op = rng.below(1000);
        if (op < 450) {
            const Tick fill = tick();
            t.set(line, fill);
            model[line] = fill;
            zero_fills += fill == 0;
            top_fills += fill == top;
        } else if (op < 700) {
            t.erase(line);
            model.erase(line);
        } else if (op < 705) {
            const Tick cut = tick();
            t.eraseUpTo(cut);
            std::erase_if(model, [cut](const auto &kv) {
                return kv.second <= cut;
            });
        } else if (op < 706) {
            for (std::uint64_t n = rng.range(1, 1000); n; --n) {
                t.clear();
                ++clears;
            }
            model.clear();
        } else {
            const std::optional<Tick> got = t.find(line);
            const auto it = model.find(line);
            ASSERT_EQ(got.has_value(), it != model.end()) << "op " << k;
            if (got) {
                ASSERT_EQ(*got, it->second) << "op " << k;
            }
        }
        ASSERT_EQ(t.size(), model.size()) << "op " << k;
        peak = std::max(peak, model.size());
    }
    for (const auto &[line, fill] : model) {
        const std::optional<Tick> got = t.find(line);
        ASSERT_TRUE(got) << "lost line " << line;
        EXPECT_EQ(*got, fill);
    }
    EXPECT_GT(peak, 256u) << "the table never had to grow";
    EXPECT_GT(clears, 1u << 16) << "the generation never wrapped";
    EXPECT_GT(zero_fills, 100u);
    EXPECT_GT(top_fills, 100u);
}

TEST(InflightTable, GenerationWrapForgetsOldEntries)
{
    // An entry written in generation g must not come back when the
    // generation counter cycles round to g again.
    InflightTable t;
    for (Addr a = 0; a < 16; ++a)
        t.set(a * 128, a);
    for (unsigned n = 0; n < (1u << 16) + 2; ++n) {
        t.clear();
        ASSERT_FALSE(t.find(3 * 128)) << "after " << n + 1 << " clears";
    }
    EXPECT_EQ(t.size(), 0u);
    t.set(3 * 128, 0);
    ASSERT_TRUE(t.find(3 * 128));
    EXPECT_EQ(*t.find(3 * 128), 0u);
}

TEST(InflightTable, FillTickBeyondThePackingBoundPanics)
{
    InflightTable t;
    t.set(0x80, InflightTable::kTickLimit - 1);
    EXPECT_EQ(*t.find(0x80), InflightTable::kTickLimit - 1);
    EXPECT_DEATH(t.set(0x100, InflightTable::kTickLimit), "does not fit");
}

namespace
{

/** Backing store with a random read latency, so fills overlap. */
class JitterMem : public MemLevel
{
  public:
    MemResult
    access(Tick issue, Addr, AccessKind kind, unsigned) override
    {
        if (kind == AccessKind::Write ||
            kind == AccessKind::WriteNoAlloc)
            return {issue + 1, false};
        return {issue + rng.range(20, 600), false};
    }

  private:
    Rng rng{0x1f1a7};
};

} // namespace

TEST(CacheInflight, RandomTraceMatchesUnorderedMapModel)
{
    // The cache's in-flight table against a std::unordered_map model
    // of the same rules: a hit waits for its line's fill if that is
    // still ahead of the access's bank start, and otherwise drops the
    // entry; every 8192nd access purges the entries whose fill is at
    // or before its issue tick. Hits and fill ticks come from the
    // cache itself (the tag array is not under test); the model
    // predicts every hit's completion tick.
    //
    // The trace runs twice: without a clock, and with a clock that
    // trails every later issue tick. The clock lets the table drop
    // the fills it has passed before growing; the model, which knows
    // no clock, must still predict every answer, and the table must
    // stay smaller than the one that waits for the purges.
    std::size_t capacity[2] = {0, 0};
    for (const bool clocked : {false, true}) {
        SCOPED_TRACE(clocked ? "with a clock" : "without a clock");
        CacheParams p = smallCache();
        p.ways = 4;    // 8 sets x 4 ways: a 96-line hot set misses often
        p.banks = 4;   // per-bank starts let issue order run backwards
        p.mshrs = 1 << 20; // no MSHR stalls: bank start is the start
        JitterMem dram;
        stats::StatGroup g("t");
        Cache c(p, &dram, &g);
        sim::Simulation clock;
        if (clocked)
            c.setClock(&clock);

        std::unordered_map<Addr, Tick> inflight;
        std::vector<Tick> bankFree(p.banks, 0);
        std::uint64_t since_purge = 0;
        unsigned purges = 0, waited = 0, expired = 0;
        std::size_t peak = 0;

        Rng rng(0xcac4e);
        Tick base = 0;
        const int accesses = 3 * 8192 + 5000;
        for (int k = 0; k < accesses; ++k) {
            base += rng.below(3);
            const Tick issue = base + rng.below(256);
            // Every later issue tick is at least base.
            clock.advanceTo(base);
            // A hot set that hits, plus cold lines whose fills pile
            // up in the table until a purge drops them.
            const Addr line =
                (rng.chance(0.7) ? rng.below(96) : rng.below(1 << 20)) *
                p.lineBytes;
            const std::uint64_t roll = rng.below(10);
            const AccessKind kind = roll < 7   ? AccessKind::Read
                                    : roll < 9 ? AccessKind::Atomic
                                               : AccessKind::Write;

            const Tick occupancy =
                p.bankCycle +
                (kind == AccessKind::Atomic ? p.atomicExtra : 0);
            Tick &free = bankFree[(line / p.lineBytes) % p.banks];
            const Tick start = std::max(issue, free);
            free = start + occupancy;
            if (++since_purge >= 8192) {
                since_purge = 0;
                ++purges;
                std::erase_if(inflight, [issue](const auto &kv) {
                    return kv.second <= issue;
                });
            }

            const MemResult r = c.access(issue, line + 4, kind, 4);
            if (r.hit) {
                Tick avail = start + p.hitLatency;
                if (auto it = inflight.find(line);
                    it != inflight.end()) {
                    if (it->second > start) {
                        avail = std::max(avail, it->second);
                        ++waited;
                    } else {
                        inflight.erase(it);
                        ++expired;
                    }
                }
                const Tick want =
                    kind == AccessKind::Write ? start + 1 : avail;
                ASSERT_EQ(r.complete, want) << "access " << k;
            } else if (kind != AccessKind::Write) {
                inflight[line] = r.complete - p.hitLatency;
                peak = std::max(peak, inflight.size());
            }
        }
        EXPECT_GE(purges, 3u);
        EXPECT_GT(waited, 100u);
        EXPECT_GT(expired, 100u);
        EXPECT_GT(peak, 1000u) << "the table never had to grow";
        capacity[clocked] = c.inflightCapacity();
    }
    // Fills run at most 600 + 255 ticks past the clock and the clock
    // gains one tick an access, so under 900 entries are ever live.
    EXPECT_GE(capacity[0], 4096u);
    EXPECT_LE(capacity[1], 2048u);
}

TEST(Cache, MshrStallsMatchPriorityQueueModel)
{
    // The MSHR rule against a std::priority_queue model: each
    // allocating read or atomic miss and each streaming read first
    // drops the misses completed by its bank start, then, with every
    // MSHR busy, waits for the earliest to complete (charging the
    // wait to mshr_stall_cycles) before going downstream. Four banks
    // let bank starts, and so the purge ticks, run backwards. Hits
    // come from the cache itself (the tag array is not under test);
    // a twin JitterMem draws the same downstream latencies, so the
    // model predicts every miss's completion tick.
    CacheParams p = smallCache();
    p.ways = 4;  // 8 sets x 4 ways
    p.banks = 4;
    p.mshrs = 4;
    JitterMem dram, twin;
    stats::StatGroup g("t");
    Cache c(p, &dram, &g);

    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        mshrs;
    std::vector<Tick> bankFree(p.banks, 0);
    Tick stall = 0;
    unsigned stalled = 0, modeled = 0;

    Rng rng(0x3541);
    Tick base = 0;
    for (int k = 0; k < 20000; ++k) {
        base += rng.below(40);
        const Tick issue = base + rng.below(256);
        const Addr line =
            (rng.chance(0.5) ? rng.below(64) : rng.below(1 << 20)) *
            p.lineBytes;
        const std::uint64_t roll = rng.below(10);
        const AccessKind kind = roll < 5   ? AccessKind::Read
                                : roll < 7 ? AccessKind::Atomic
                                : roll < 9 ? AccessKind::ReadNoAlloc
                                           : AccessKind::Write;

        const Tick occupancy =
            p.bankCycle +
            (kind == AccessKind::Atomic ? p.atomicExtra : 0);
        Tick &free = bankFree[(line / p.lineBytes) % p.banks];
        Tick start = std::max(issue, free);
        free = start + occupancy;

        const MemResult r = c.access(issue, line, kind, 4);
        if (r.hit || kind == AccessKind::Write)
            continue;
        while (!mshrs.empty() && mshrs.top() <= start)
            mshrs.pop();
        if (mshrs.size() >= p.mshrs) {
            stall += mshrs.top() - start;
            start = mshrs.top();
            mshrs.pop();
            ++stalled;
        }
        const Tick down = twin.access(start, line, kind, 4).complete;
        mshrs.push(down);
        ASSERT_EQ(r.complete, down + p.hitLatency) << "access " << k;
        ++modeled;
    }
    EXPECT_EQ(g.lookup("c.mshr_stall_cycles"), static_cast<double>(stall));
    EXPECT_GT(modeled, 5000u);
    EXPECT_GT(stalled, 1000u);
}

namespace
{

/**
 * Fixed-latency backing store that folds every line writeback (a
 * downstream Write) into an FNV-1a digest of (tick, addr), and counts
 * the fills that bypassed the cache: those read a whole line, where
 * the trace below asks for 4 bytes.
 */
class WritebackDigestMem : public MemLevel
{
  public:
    MemResult
    access(Tick issue, Addr addr, AccessKind kind,
           unsigned bytes) override
    {
        if (kind == AccessKind::Write) {
            fold(issue);
            fold(addr);
            ++writebacks;
            return {issue + 1, false};
        }
        if (kind == AccessKind::Read && bytes == 128)
            ++bypassFills;
        return {issue + 150, false};
    }

    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t writebacks = 0;
    std::uint64_t bypassFills = 0;

  private:
    void
    fold(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (8 * i)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    }
};

} // namespace

TEST(Cache, InvalidateAllWritebacksMatchParent)
{
    // invalidateAll must write back exactly the dirty lines, in
    // ascending way order, whichever ways were installed since the
    // last call. A seeded trace of reads, stores, write-validate,
    // streaming accesses and pinned-set bypass fills, with repeated
    // invalidations interleaved; the digest of the downstream
    // writeback sequence is pinned to the value of the full-sweep
    // invalidation this implementation replaced.
    CacheParams p = smallCache();
    p.sizeBytes = 16 << 10; // 32 sets x 4 ways: two words of valid bits
    p.ways = 4;
    p.mshrs = 16;
    WritebackDigestMem down;
    stats::StatGroup g("t");
    Cache c(p, &down, &g);
    // 256 pinned lines fill whole sets, so unpinned fills bypass.
    c.setProtectedRegion(0, 256 * p.lineBytes);

    Rng rng(0x1a5d);
    Tick base = 0;
    unsigned invalidations = 0;
    std::uint64_t invalidate_writebacks = 0;
    c.invalidateAll(0); // on an empty cache: no traffic
    for (int k = 0; k < 20000; ++k) {
        base += rng.below(4);
        if (rng.chance(0.01)) {
            const std::uint64_t before = down.writebacks;
            c.invalidateAll(base);
            if (rng.chance(0.3))
                c.invalidateAll(base + 1); // nothing left to write
            invalidate_writebacks += down.writebacks - before;
            ++invalidations;
            continue;
        }
        const Addr line = rng.chance(0.4)
                              ? rng.below(256)
                              : 4096 + rng.below(512);
        const std::uint64_t roll = rng.below(10);
        const AccessKind kind = roll < 4   ? AccessKind::Read
                                : roll < 6 ? AccessKind::Atomic
                                : roll < 8 ? AccessKind::Write
                                : roll < 9 ? AccessKind::ReadNoAlloc
                                           : AccessKind::WriteNoAlloc;
        c.access(base + rng.below(64), line * p.lineBytes + 4, kind, 4);
    }
    c.invalidateAll(base + 10);

    EXPECT_GT(invalidations, 150u);
    EXPECT_GT(invalidate_writebacks, 1000u);
    EXPECT_GT(down.bypassFills, 20u);
    EXPECT_EQ(static_cast<double>(down.writebacks), c.numWritebacks());
    EXPECT_EQ(down.digest, 0xcaee7de8330920f1ull) << std::hex << down.digest;
}

TEST(Dram, RowBufferLocality)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    DramParams p = DramParams::lpddr4();
    Dram d(p, clk, &g);

    // Sequential stream: high row hit rate.
    Tick t = 0;
    for (Addr a = 0; a < 512 * 128; a += 128)
        t = d.access(t, a, AccessKind::Read, 128).complete;
    EXPECT_GT(d.rowHitRate(), 0.8);
}

TEST(Dram, RandomAccessMissesRows)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    Dram d(DramParams::lpddr4(), clk, &g);

    Rng rng(3);
    Tick t = 0;
    for (int i = 0; i < 2000; ++i) {
        Addr a = (rng.next() % (1ULL << 30)) & ~Addr{127};
        t = d.access(t, a, AccessKind::Read, 128).complete;
    }
    EXPECT_LT(d.rowHitRate(), 0.3);
}

TEST(Dram, BandwidthCapHolds)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    DramParams p = DramParams::lpddr4(); // 25.6 GB/s at 1 GHz
    Dram d(p, clk, &g);

    // Saturate with sequential reads issued every cycle.
    const int n = 20000;
    Tick last = 0;
    for (int i = 0; i < n; ++i) {
        auto r = d.access(static_cast<Tick>(i), Addr(i) * 128,
                          AccessKind::Read, 128);
        last = std::max(last, r.complete);
    }
    double bytes = static_cast<double>(n) * 128;
    double achieved = bytes / clk.toSeconds(last);
    EXPECT_LE(achieved, p.peakBytesPerSec * 1.02);
    EXPECT_GE(achieved, p.peakBytesPerSec * 0.5);
}

TEST(Dram, SectoredTransfersMoveFewerBytes)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    Dram d(DramParams::gddr5(), clk, &g);
    d.access(0, 0, AccessKind::Read, 32);
    d.access(100, 4096, AccessKind::Read, 128);
    EXPECT_DOUBLE_EQ(d.bytesMoved(), 160.0);
}

namespace
{

/** Test-local division-based reference of Dram's address map. */
Dram::Coord
divisionMap(const DramParams &p, Addr addr)
{
    const std::uint64_t line = addr / p.lineBytes;
    const std::uint64_t addr_in_chan = (line / p.channels) * p.lineBytes;
    const std::uint64_t row_global = addr_in_chan / p.rowBytes;
    return {static_cast<unsigned>(line % p.channels),
            static_cast<unsigned>(row_global % p.banksPerChannel),
            row_global / p.banksPerChannel};
}

} // namespace

TEST(DramMap, ShiftsMatchDivision)
{
    for (const DramParams &p : {DramParams::gddr5(), DramParams::lpddr4()}) {
        for (double ghz : {1.0, 1.216}) {
            sim::ClockDomain clk(ghz * 1e9);
            stats::StatGroup g("t");
            Dram d(p, clk, &g);
            SCOPED_TRACE(p.name + " @ " + std::to_string(ghz) + " GHz");

            Rng rng(21);
            for (int i = 0; i < 20000; ++i) {
                // Mix small, line-aligned and full 40-bit addresses.
                const Addr a = i % 3 == 0 ? rng.below(1 << 20)
                               : i % 3 == 1
                                   ? rng.below(1ULL << 32) & ~Addr{127}
                                   : rng.below(1ULL << 40);
                const Dram::Coord got = d.map(a);
                const Dram::Coord want = divisionMap(p, a);
                ASSERT_EQ(got.channel, want.channel) << a;
                ASSERT_EQ(got.bank, want.bank) << a;
                ASSERT_EQ(got.row, want.row) << a;
            }

            const Tick per_line = std::max<Tick>(
                1, clk.cyclesForBytes(p.lineBytes,
                                      p.peakBytesPerSec / p.channels));
            for (unsigned bytes : {1u, 4u, 32u, 64u, 96u, 128u, 256u}) {
                const unsigned moved =
                    std::min(std::max(bytes, 32u), p.lineBytes);
                EXPECT_EQ(d.busCycles(bytes),
                          std::max<Tick>(1, per_line * moved /
                                                p.lineBytes))
                    << bytes << " B";
            }
        }
    }
}

TEST(DramMap, NonPowerOfTwoGeometryPanics)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    DramParams p = DramParams::gddr5();
    p.channels = 6;
    EXPECT_DEATH(Dram(p, clk, &g), "channel count must be 2\\^n");
    p = DramParams::gddr5();
    p.banksPerChannel = 12;
    EXPECT_DEATH(Dram(p, clk, &g), "bank count must be 2\\^n");
    p = DramParams::lpddr4();
    p.rowBytes = 3072;
    EXPECT_DEATH(Dram(p, clk, &g), "row size must be 2\\^n");
}

TEST(Cache, TagBeyond32BitsPanics)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);
    // The last line of a 4 GB device, and the largest 32-bit tag a
    // way can hold, are fine; one line further does not fit.
    EXPECT_FALSE(c.access(0, (Addr{4} << 30) - 128, AccessKind::Read,
                          4).hit);
    const Addr top = Addr{0xfffffffe} * 128;
    EXPECT_FALSE(c.access(0, top, AccessKind::Read, 4).hit);
    EXPECT_TRUE(c.access(1000, top, AccessKind::Read, 4).hit);
    EXPECT_DEATH(c.access(2000, top + 128, AccessKind::Read, 4),
                 "does not fit 32 bits");
}

TEST(Cache, NonPowerOfTwoGeometryPanics)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    p.sizeBytes = 3 * 16 * 128; // 3 sets
    EXPECT_DEATH(Cache(p, &dram, &g), "set count 3 must be 2\\^n");
    p = smallCache();
    p.banks = 3;
    EXPECT_DEATH(Cache(p, &dram, &g), "bank count 3 must be 2\\^n");
    // A tag match covers at most 64 ways.
    p = smallCache();
    p.ways = 0;
    EXPECT_DEATH(Cache(p, &dram, &g), "0 ways, want 1 to 64");
    p.ways = 128;
    p.sizeBytes = 2 * 128 * 128;
    EXPECT_DEATH(Cache(p, &dram, &g), "128 ways, want 1 to 64");
    // The power-of-two geometries of the presets and tests build.
    p = smallCache();
    p.banks = 4;
    Cache ok(p, &dram, &g);
    EXPECT_EQ(ok.params().banks, 4u);
}

TEST(MemSystem, InterconnectLatencyAdds)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    MemSystemParams mp;
    mp.l2 = smallCache();
    mp.dram = DramParams::lpddr4();
    mp.icnLatency = 50;
    MemSystem ms(mp, clk, &g);

    auto miss = ms.access(0, 0x1000, AccessKind::Read, 128);
    auto hit = ms.access(miss.complete, 0x1000, AccessKind::Read,
                         128);
    EXPECT_TRUE(hit.hit);
    // Hit path: icn there (50) + hit latency (10) + icn back (50).
    EXPECT_GE(hit.complete - miss.complete, 110u);
}

TEST(MemSystem, BandwidthUtilizationMetric)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    MemSystemParams mp;
    mp.l2 = smallCache();
    mp.dram = DramParams::lpddr4();
    MemSystem ms(mp, clk, &g);

    for (int i = 0; i < 100; ++i)
        ms.access(static_cast<Tick>(i), Addr(i) * 4096,
                  AccessKind::Read, 128);
    double util = ms.bandwidthUtilization(100000);
    EXPECT_GT(util, 0.0);
    EXPECT_LT(util, 1.0);
}
