/** @file Unit tests for common utilities (RNG, zipfian, BlockMap). */
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "common/block_map.h"
#include "common/error.h"
#include "common/rand.h"

namespace cnvm {
namespace {

TEST(Xorshift, Deterministic)
{
    Xorshift a(42), b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xorshift, SeedsDiffer)
{
    Xorshift a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Xorshift, UniformBounds)
{
    Xorshift r(7);
    for (int i = 0; i < 10000; i++) {
        EXPECT_LT(r.nextUint(17), 17u);
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Zipfian, RanksAreSkewed)
{
    Zipfian z(1000, 0.99, 3);
    std::unordered_map<uint64_t, int> counts;
    for (int i = 0; i < 100000; i++)
        counts[z.nextRank()]++;
    // Rank 0 must be by far the most popular.
    int top = counts[0];
    EXPECT_GT(top, 100000 / 20);
    int tail = 0;
    for (uint64_t k = 900; k < 1000; k++)
        tail += counts[k];
    EXPECT_LT(tail, top);
}

TEST(Zipfian, ScrambledStaysInRange)
{
    Zipfian z(257, 0.99, 5);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(z.next(), 257u);
}

TEST(Fnv1a, KnownProperties)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
    EXPECT_NE(fnv1a("a", 1), fnv1a("b", 1));
    uint64_t h1 = fnv1a("hello", 5);
    EXPECT_EQ(h1, fnv1a("hello", 5));
}

TEST(BlockMap, RefInsertsAndAccumulatesBits)
{
    BlockMap m(16);
    EXPECT_EQ(m.get(5), 0);
    m.ref(5) |= BlockMap::kRead;
    m.ref(5) |= BlockMap::kWritten;
    EXPECT_EQ(m.get(5), BlockMap::kRead | BlockMap::kWritten);
    EXPECT_EQ(m.size(), 1u);
    // Key 0 is a valid key.
    m.ref(0) |= BlockMap::kLogged;
    EXPECT_EQ(m.get(0), BlockMap::kLogged);
    EXPECT_EQ(m.size(), 2u);
}

TEST(BlockMap, ClearIsCheapAndComplete)
{
    BlockMap m(16);
    for (uint64_t b = 0; b < 100; b++)
        m.ref(b) |= BlockMap::kWritten;
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    for (uint64_t b = 0; b < 100; b++)
        EXPECT_EQ(m.get(b), 0);
    m.ref(3) |= BlockMap::kRead;
    EXPECT_EQ(m.get(3), BlockMap::kRead);
}

TEST(BlockMap, GrowthPreservesStateBits)
{
    BlockMap m(16);
    // Assign a distinct bit pattern per key, forcing several growths
    // mid-"transaction", and check no state byte is lost or mixed up.
    std::map<uint64_t, uint8_t> expect;
    for (uint64_t i = 0; i < 5000; i++) {
        uint64_t key = i * 977;
        uint8_t bits = static_cast<uint8_t>(1u << (i % 5));
        m.ref(key) |= bits;
        expect[key] |= bits;
    }
    EXPECT_GT(m.capacity(), 16u);
    EXPECT_EQ(m.size(), expect.size());
    for (const auto& [key, bits] : expect)
        EXPECT_EQ(m.get(key), bits) << "key " << key;
    std::map<uint64_t, uint8_t> seen;
    m.forEach([&](uint64_t k, uint8_t st) { seen[k] = st; });
    EXPECT_EQ(seen, expect);
}

TEST(BlockMap, EpochWrapHardResets)
{
    BlockMap m(16);
    m.ref(1) |= BlockMap::kRead;
    m.ref(2) |= BlockMap::kWritten;
    m.forceWrap();
    EXPECT_EQ(m.get(1), BlockMap::kRead);
    EXPECT_EQ(m.get(2), BlockMap::kWritten);
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.get(1), 0);
    EXPECT_EQ(m.get(2), 0);
    m.ref(1) |= BlockMap::kLogged;
    EXPECT_EQ(m.get(1), BlockMap::kLogged);
    EXPECT_EQ(m.get(2), 0);
    m.clear();
    EXPECT_EQ(m.get(1), 0);
}

TEST(BlockMap, ClearRegionBitsIsScopedAndCheap)
{
    BlockMap m(16);
    m.ref(1) |= BlockMap::kRead | BlockMap::kRegionRead;
    m.ref(2) |= BlockMap::kWritten | BlockMap::kRegionWritten;
    m.clearRegionBits();
    // Region bits vanish; transaction-scoped bits survive.
    EXPECT_EQ(m.get(1), BlockMap::kRead);
    EXPECT_EQ(m.get(2), BlockMap::kWritten);
    // Both through the mutating and non-mutating paths.
    EXPECT_EQ(m.ref(1), BlockMap::kRead);
    m.ref(1) |= BlockMap::kRegionRead;
    EXPECT_EQ(m.get(1), BlockMap::kRead | BlockMap::kRegionRead);
    uint8_t seen1 = 0;
    m.forEach([&](uint64_t k, uint8_t st) {
        if (k == 1)
            seen1 = st;
    });
    EXPECT_EQ(seen1, BlockMap::kRead | BlockMap::kRegionRead);
}

TEST(BlockMap, RegionEpochSurvivesGrowth)
{
    BlockMap m(16);
    for (uint64_t b = 0; b < 50; b++)
        m.ref(b) |= BlockMap::kWritten | BlockMap::kRegionWritten;
    m.clearRegionBits();
    // Growth re-inserts entries whose region bits are stale; the new
    // table must still treat them as cleared.
    for (uint64_t b = 50; b < 5000; b++)
        m.ref(b) |= BlockMap::kRead;
    for (uint64_t b = 0; b < 50; b++)
        EXPECT_EQ(m.get(b), BlockMap::kWritten) << "block " << b;
}

TEST(Error, FatalAndPanicThrow)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

}  // namespace
}  // namespace cnvm
