/**
 * @file
 * Unit tests for the common utilities: bit helpers, bounded FIFO,
 * deterministic RNG, string formatting and the FNV-1a hash.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/bits.hh"
#include "common/fifo.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"

using namespace scusim;

TEST(Bits, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(12));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ULL << 33), 33u);
}

TEST(Bits, CeilPowerOf2)
{
    EXPECT_EQ(ceilPowerOf2(1), 1u);
    EXPECT_EQ(ceilPowerOf2(3), 4u);
    EXPECT_EQ(ceilPowerOf2(4), 4u);
    EXPECT_EQ(ceilPowerOf2(1000), 1024u);
}

TEST(Bits, Alignment)
{
    EXPECT_EQ(alignDown(Addr{257}, 128), Addr{256});
    EXPECT_EQ(alignDown(Addr{256}, 128), Addr{256});
    EXPECT_EQ(alignUp(Addr{257}, 128), Addr{384});
    EXPECT_EQ(alignUp(Addr{256}, 128), Addr{256});
}

TEST(Bits, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(Bits, MixBitsAvalanche)
{
    // Nearby keys should land far apart: no collisions among the
    // mixed values of 4096 consecutive integers modulo a prime-ish
    // bucket count would be too strong; instead check distinctness.
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 4096; ++i)
        seen.insert(mixBits(i));
    EXPECT_EQ(seen.size(), 4096u);
}

TEST(Hash, Fnv1aReferenceVectors)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
    // Folding in pieces equals hashing the concatenation.
    EXPECT_EQ(fnv1a("bar", 3, fnv1a("foo", 3)), fnv1a("foobar", 6));
}

// Partition fingerprints hash through fnv1a; these values were
// recorded before it became the simulator's one content hash.
TEST(Hash, PartitionFingerprintsArePinned)
{
    EXPECT_EQ(graph::GraphPartition::build(graph::referenceGraph(), 2)
                  .fingerprint(),
              0x56018360721fc4e4ull);
    const graph::CsrGraph g = graph::makeDataset("cond", 0.01, 7);
    EXPECT_EQ(graph::GraphPartition::build(g, 3).fingerprint(),
              0x91afb475867a9c2dull);
}

TEST(BoundedFifo, FillAndDrain)
{
    BoundedFifo<int> f(3);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.space(), 3u);
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.space(), 0u);
    EXPECT_EQ(f.front(), 1);
    f.pop();
    EXPECT_EQ(f.front(), 2);
    f.pop();
    f.pop();
    EXPECT_TRUE(f.empty());
}

TEST(BoundedFifo, OverflowPanics)
{
    BoundedFifo<int> f(1);
    f.push(1);
    EXPECT_DEATH(f.push(2), "full BoundedFifo");
}

TEST(BoundedFifo, UnderflowPanics)
{
    BoundedFifo<int> f(1);
    EXPECT_DEATH(f.pop(), "empty BoundedFifo");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 3, "z"), "x=3 y=z");
    EXPECT_EQ(strprintf("%05u", 42u), "00042");
}

TEST(Logging, PanicIfAborts)
{
    EXPECT_DEATH(panic_if(true, "boom %d", 1), "boom 1");
}
