/** @file Unit tests for the persistent allocator. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc/pm_allocator.h"
#include "common/error.h"
#include "common/rand.h"
#include "nvm/fault_model.h"
#include "nvm/pool.h"
#include "testutil.h"

namespace cnvm::alloc {
namespace {

struct AllocTest : ::testing::Test {
    void
    SetUp() override
    {
        nvm::PoolConfig cfg;
        cfg.size = 16 << 20;
        cfg.maxThreads = 2;
        cfg.slotBytes = 64 << 10;
        pool = nvm::Pool::create(cfg);
        heap = std::make_unique<PmAllocator>(*pool);
    }

    std::unique_ptr<nvm::Pool> pool;
    std::unique_ptr<PmAllocator> heap;
};

TEST_F(AllocTest, ReserveAlignedAndSized)
{
    uint64_t a = heap->reserve(100);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(heap->payloadSize(a), 100u);
    uint64_t b = heap->reserve(100);
    EXPECT_NE(a, b);
}

TEST_F(AllocTest, ReservationsDoNotOverlap)
{
    std::set<std::pair<uint64_t, uint64_t>> ranges;
    for (int i = 1; i <= 500; i++) {
        auto sz = static_cast<size_t>(i % 97 + 1);
        uint64_t off = heap->reserve(sz);
        for (const auto& [o, l] : ranges) {
            bool disjoint = off + sz <= o || o + l <= off;
            ASSERT_TRUE(disjoint) << "overlap at " << off;
        }
        ranges.emplace(off, sz);
    }
}

TEST_F(AllocTest, ReleaseReservationReturnsSpace)
{
    size_t before = heap->freeBytes();
    uint64_t a = heap->reserve(1000);
    EXPECT_LT(heap->freeBytes(), before);
    heap->releaseReservation(a);
    EXPECT_EQ(heap->freeBytes(), before);
}

TEST_F(AllocTest, UncommittedReservationVanishesOnRebuild)
{
    size_t before = heap->freeBytes();
    heap->reserve(1000);  // never persisted
    heap->rebuild();
    EXPECT_EQ(heap->freeBytes(), before);
}

TEST_F(AllocTest, CommittedAllocationSurvivesRebuild)
{
    size_t before = heap->freeBytes();
    uint64_t a = heap->reserve(1000);
    heap->persistAllocate(a);
    pool->fence();
    heap->rebuild();
    EXPECT_LT(heap->freeBytes(), before);
    EXPECT_EQ(heap->payloadSize(a), 1000u);
    // And a fresh reservation must not land inside it.
    uint64_t b = heap->reserve(1000);
    EXPECT_TRUE(b + 1000 <= a - 16 || a + 1000 <= b - 16);
}

TEST_F(AllocTest, PersistFreeReturnsSpaceAcrossRebuild)
{
    size_t start = heap->freeBytes();
    uint64_t a = heap->reserve(1000);
    heap->persistAllocate(a);
    pool->fence();
    heap->persistFree(a);
    pool->fence();
    heap->rebuild();
    EXPECT_EQ(heap->freeBytes(), start);
}

TEST_F(AllocTest, CoalescingKeepsExtentCountBounded)
{
    std::vector<uint64_t> offs;
    offs.reserve(64);
    for (int i = 0; i < 64; i++) {
        uint64_t off = heap->reserve(64);
        heap->persistAllocate(off);
        offs.push_back(off);
    }
    pool->fence();
    for (uint64_t off : offs) {
        heap->persistFree(off);
    }
    pool->fence();
    // All space freed and adjacent blocks coalesced back together.
    heap->rebuild();
    EXPECT_LE(heap->freeExtents(), 2u);
}

TEST_F(AllocTest, RevertBitsIsIdempotent)
{
    uint64_t a = heap->reserve(256);
    heap->persistAllocate(a);
    pool->fence();
    heap->revertBits(a, 256, false);
    heap->revertBits(a, 256, false);
    heap->rebuild();
    size_t freed = heap->freeBytes();
    heap->revertBits(a, 256, true);
    heap->revertBits(a, 256, true);
    heap->rebuild();
    EXPECT_LT(heap->freeBytes(), freed);
}

/**
 * Every writer of bitmap bits keeps the free map exact as it goes:
 * after each one, with no rebuild in between, the map equals a walk
 * over the raw bitmap. Holds pin their range out of the map until
 * released, and a committed free of a held block outlives the heal
 * that would force it allocated again.
 */
TEST_F(AllocTest, WritersKeepFreeMapExactWithoutRebuild)
{
    const uint64_t block = 224;  // 200 payload bytes + header, aligned
    std::vector<uint64_t> offs;
    for (int i = 0; i < 8; i++) {
        offs.push_back(heap->reserve(200));
        heap->persistAllocate(offs.back());
    }
    pool->fence();
    heap->releaseReservation(heap->reserve(500));
    test::expectFreeMapMatchesBitmap(*pool, *heap);

    heap->revertBits(offs[1], 200, false);
    test::expectFreeMapMatchesBitmap(*pool, *heap);
    heap->revertBits(offs[1], 200, false);
    test::expectFreeMapMatchesBitmap(*pool, *heap);
    heap->revertBits(offs[1], 200, true);
    test::expectFreeMapMatchesBitmap(*pool, *heap);
    heap->persistFree(offs[2]);
    heap->persistFree(offs[3], 200);
    test::expectFreeMapMatchesBitmap(*pool, *heap);
    heap->quarantine(offs[2] - sizeof(BlockHeader), 64,
                     kQuarCorruptHeader);
    test::expectFreeMapMatchesBitmap(*pool, *heap);
    EXPECT_FALSE(heap->quarantineViolation());

    // The slot that holds offs[5] rolls it back; the space stays
    // pinned until the slot's holds go.
    size_t before = heap->freeBytes();
    heap->addHold(0, offs[5] - sizeof(BlockHeader), block);
    heap->revertBits(offs[5], 200, false);
    EXPECT_EQ(heap->freeBytes(), before);
    heap->releaseHolds(0);
    EXPECT_EQ(heap->freeBytes(), before + block);
    test::expectFreeMapMatchesBitmap(*pool, *heap);

    // A committed transaction frees held offs[6] before its slot's
    // heal would complete the allocation: the free stands.
    heap->addHold(1, offs[6] - sizeof(BlockHeader), block);
    heap->persistFree(offs[6], 200);
    heap->revertBits(offs[6], 200, true);
    heap->releaseHolds(1);
    EXPECT_EQ(heap->freeBytes(), before + 2 * block);
    test::expectFreeMapMatchesBitmap(*pool, *heap);
}

TEST_F(AllocTest, ExhaustionIsFatalNotUb)
{
    EXPECT_THROW(heap->reserve(1ULL << 40), FatalError);
}

TEST_F(AllocTest, ReattachFindsExistingHeap)
{
    uint64_t a = heap->reserve(512);
    heap->persistAllocate(a);
    pool->fence();
    // A second allocator over the same pool must respect the bitmap.
    PmAllocator again(*pool);
    EXPECT_EQ(again.payloadSize(a), 512u);
    uint64_t b = again.reserve(512);
    EXPECT_NE(a, b);
}

TEST_F(AllocTest, CorruptBlockHeaderThrowsInsteadOfAborting)
{
    // Satellite regression: a hand-corrupted block header used to hit
    // CNVM_CHECK and terminate the process; it must now surface as a
    // typed, catchable error.
    uint64_t a = heap->reserve(256);
    heap->persistAllocate(a);
    pool->fence();
    BlockHeader bad{};
    bad.payloadBytes = 256;
    bad.check = 0xdeadbeef;  // wrong: != payloadBytes ^ kBlockMagic
    std::memcpy(pool->base() + a - sizeof(BlockHeader), &bad,
                sizeof(bad));
    EXPECT_THROW(heap->payloadSize(a), CorruptBlockError);
    EXPECT_THROW(heap->persistFree(a), CorruptBlockError);
    try {
        heap->payloadSize(a);
    } catch (const CorruptBlockError& e) {
        EXPECT_EQ(e.payloadOff(), a);
    }
    // The sized overload trusts the caller's intent table and still
    // frees the block without consulting the bad header.
    heap->persistFree(a, 256);
    pool->fence();
}

TEST_F(AllocTest, QuarantinePersistsAcrossReattach)
{
    uint64_t a = heap->reserve(4096);
    heap->persistAllocate(a);
    pool->fence();
    size_t freeBefore = heap->freeBytes();
    heap->quarantine(a - sizeof(BlockHeader),
                     4096 + sizeof(BlockHeader), kQuarPoisonedData);
    EXPECT_TRUE(heap->isQuarantined(a, 1));
    EXPECT_FALSE(heap->quarantineViolation());

    // A fresh allocator over the same pool must reload the table and
    // keep the range out of the free map.
    PmAllocator again(*pool);
    EXPECT_TRUE(again.isQuarantined(a, 1));
    EXPECT_EQ(again.quarantineCount(), 1u);
    EXPECT_FALSE(again.quarantineViolation());
    // The quarantined bytes never resurface: everything allocatable
    // can be drawn down without ever overlapping the range.
    EXPECT_LE(again.freeBytes(), freeBefore);
    for (int i = 0; i < 64; i++) {
        uint64_t b = again.reserve(512);
        EXPECT_TRUE(b + 512 <= a - sizeof(BlockHeader) ||
                    b >= a + 4096);
        again.persistAllocate(b);
    }
    pool->fence();
}

TEST_F(AllocTest, QuarantineIsIdempotentForCoveredRanges)
{
    uint64_t a = heap->reserve(1024);
    heap->persistAllocate(a);
    pool->fence();
    heap->quarantine(a - sizeof(BlockHeader), 1024, kQuarCorruptHeader);
    uint32_t n = heap->quarantineCount();
    heap->quarantine(a - sizeof(BlockHeader), 1024, kQuarCorruptHeader);
    EXPECT_EQ(heap->quarantineCount(), n);
}

TEST_F(AllocTest, PoisonedBitmapChunkIsQuarantinedOnRebuild)
{
    uint64_t a = heap->reserve(256);
    heap->persistAllocate(a);
    pool->fence();
    nvm::FaultConfig fc;
    fc.poisons = 1;
    pool->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
    // Poison the first line of the bitmap: rebuild must not trust the
    // chunk — it rewrites it all-allocated and quarantines the
    // granules that chunk administers.
    pool->faults()->poisonAt(heap->bitmapOff());
    RebuildStats st = heap->rebuild();
    EXPECT_GT(st.poisonedChunks, 0u);
    EXPECT_GT(st.quarantinedBlocks, 0u);
    EXPECT_GT(st.quarantinedBytes, 0u);
    EXPECT_FALSE(heap->quarantineViolation());
    // The healing rewrite cleared the poison, so the next rebuild is
    // clean and the quarantined range stays out of the free map.
    RebuildStats st2 = heap->rebuild();
    EXPECT_EQ(st2.poisonedChunks, 0u);
    EXPECT_FALSE(heap->quarantineViolation());
}

TEST_F(AllocTest, FlippedAllocHeaderIsHealedOnRebuild)
{
    uint64_t a = heap->reserve(256);
    heap->persistAllocate(a);
    pool->fence();
    uint64_t dataOff = heap->dataOff();
    nvm::FaultConfig fc;
    fc.bitFlips = 1;
    pool->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
    // Flip a bit inside the AllocHeader's dataOff field: the layout is
    // a pure function of pool geometry, so rebuild recomputes it.
    pool->faults()->flipBit(*pool,
                            pool->heapOff() +
                                offsetof(AllocHeader, dataOff),
                            5);
    RebuildStats st = heap->rebuild();
    EXPECT_TRUE(st.headerHealed);
    EXPECT_EQ(heap->dataOff(), dataOff);
    EXPECT_EQ(heap->payloadSize(a), 256u);
    // Healed in place: the next rebuild sees a pristine header.
    EXPECT_FALSE(heap->rebuild().headerHealed);
}

/**
 * A small heap whose bitmap the scan tests write straight into the
 * pool. Every size used below has a granule count that is not a
 * multiple of 64, so the bitmap's last word is partial.
 */
struct ScanRig {
    explicit ScanRig(size_t size)
    {
        nvm::PoolConfig cfg;
        cfg.size = size;
        cfg.maxThreads = 1;
        cfg.slotBytes = 64 << 10;
        pool = nvm::Pool::create(cfg);
        heap = std::make_unique<PmAllocator>(*pool);
        granules = heap->dataBytes() / kGranule;
    }

    /** Bit g % 8 of byte g / 8 set = granule g allocated. */
    std::vector<uint8_t>
    allocatedExcept(uint64_t lo, uint64_t hi) const
    {
        std::vector<uint8_t> bm((granules + 7) / 8, 0xff);
        for (uint64_t g = lo; g < hi; g++)
            bm[g / 8] &= static_cast<uint8_t>(~(1u << (g % 8)));
        return bm;
    }

    /** Make `bm` the persistent bitmap. Bits past the last granule are
     *  cleared, as the format leaves them. */
    void
    store(std::vector<uint8_t> bm) const
    {
        if (granules % 8 != 0)
            bm.back() &= static_cast<uint8_t>((1u << (granules % 8)) - 1);
        pool->writeAt(heap->bitmapOff(), bm.data(), bm.size());
    }

    std::unique_ptr<nvm::Pool> pool;
    std::unique_ptr<PmAllocator> heap;
    uint64_t granules = 0;
};

TEST(BitmapScan, FreeMapMatchesBitByBitWalkOnRandomBitmaps)
{
    // 1 MiB: 60,604 granules, a 24-byte tail chunk. 1 MiB + 8 KiB:
    // 61,112 granules, a 23-byte tail chunk. 600 KiB: 33,680 granules,
    // past the first 32,768-granule reserve() pull.
    for (size_t size : {size_t{1} << 20, (size_t{1} << 20) + 8192,
                        size_t{600} << 10}) {
        ScanRig r(size);
        ASSERT_NE(r.granules % 64, 0u);
        for (uint64_t seed = 1; seed <= 6; seed++) {
            SCOPED_TRACE("size " + std::to_string(size) + " seed " +
                         std::to_string(seed));
            // Stretches of 1-300 free, allocated or random bytes.
            Xorshift rng(seed * 1000 + size);
            const uint8_t fill[2] = {0x00, 0xff};
            std::vector<uint8_t> bm((r.granules + 7) / 8);
            for (size_t i = 0; i < bm.size();) {
                size_t end =
                    std::min<size_t>(bm.size(), i + 1 + rng.nextUint(300));
                uint64_t kind = rng.nextUint(3);
                for (; i < end; i++) {
                    auto random = static_cast<uint8_t>(rng.next());
                    bm[i] = kind < 2 ? fill[kind] : random;
                }
            }
            // Odd seeds end on a free granule, even seeds on an
            // allocated one.
            uint64_t last = r.granules - 1;
            auto bit = static_cast<uint8_t>(1u << (last % 8));
            if (seed % 2 != 0)
                bm[last / 8] &= static_cast<uint8_t>(~bit);
            else
                bm[last / 8] |= bit;
            r.store(bm);
            r.heap->rebuild();
            test::expectFreeMapMatchesBitmap(*r.pool, *r.heap);
            SCOPED_TRACE("beginLazyRebuild + finishScan");
            r.heap->beginLazyRebuild();
            r.heap->finishScan();
            test::expectFreeMapMatchesBitmap(*r.pool, *r.heap);
        }
    }
}

TEST(BitmapScan, OneFreeRunIsFoundWholeAtEveryBoundary)
{
    // 2.5 MiB: 158,148 granules, five pulls, a 4-granule last word.
    ScanRig r(size_t{5} << 19);
    const uint64_t n = r.granules;
    ASSERT_NE(n % 64, 0u);
    // Run edges on both sides of a bitmap word (64 granules), a 64-byte
    // chunk (512), a 64-chunk reserve() pull (32,768) and the heap's
    // end.
    std::vector<std::pair<uint64_t, uint64_t>> runs{{0, 1}, {0, n}};
    for (uint64_t b : {uint64_t{64}, uint64_t{512}, uint64_t{32768}, n}) {
        for (uint64_t edge : {b - 1, b, b + 1}) {
            for (uint64_t len : {1, 2, 63, 64, 65, 513, 40000}) {
                if (edge + len <= n)
                    runs.emplace_back(edge, edge + len);
                if (len <= edge && edge <= n)
                    runs.emplace_back(edge - len, edge);
            }
        }
    }
    for (auto [s, e] : runs) {
        SCOPED_TRACE("free run [" + std::to_string(s) + ", " +
                     std::to_string(e) + ")");
        r.store(r.allocatedExcept(s, e));
        uint64_t want =
            r.heap->dataOff() + kGranule * s + sizeof(BlockHeader);
        for (bool lazy : {false, true}) {
            SCOPED_TRACE(lazy ? "lazy" : "eager");
            if (lazy)
                r.heap->beginLazyRebuild();
            else
                r.heap->rebuild();
            EXPECT_EQ(r.heap->reserve(kGranule * (e - s - 1)), want);
            EXPECT_THROW(r.heap->reserve(0), FatalError);
        }
    }
}

TEST(BitmapScan, LazyPullFreesTheScannedPartOfAnOpenRun)
{
    // A fresh heap is one free run. The first lazy reserve() is served
    // from the part of it the first pull scanned, not after the scan
    // reaches the heap's end.
    ScanRig r(size_t{5} << 19);
    r.heap->beginLazyRebuild();
    EXPECT_EQ(r.heap->reserve(0), r.heap->dataOff() + sizeof(BlockHeader));
    EXPECT_GT(r.heap->freeBytes(), 0u);
    EXPECT_LT(r.heap->freeBytes(), r.heap->dataBytes() - kGranule);
    r.heap->finishScan();
    EXPECT_EQ(r.heap->freeBytes(), r.heap->dataBytes() - kGranule);
}

TEST(BitmapScan, PoisonedChunkSplitsAFreeRunAroundItsQuarantine)
{
    for (bool lazy : {false, true}) {
        SCOPED_TRACE(lazy ? "lazy" : "eager");
        ScanRig r(size_t{1} << 20);
        nvm::FaultConfig fc;
        fc.poisons = 1;
        r.pool->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
        // One 64-byte bitmap line administers 512 granules.
        const uint64_t chunk = r.granules / 512 / 2;
        const uint64_t lo = r.heap->dataOff() + kGranule * 512 * chunk;
        const uint64_t bytes = kGranule * 512;
        r.pool->faults()->poisonAt(r.heap->bitmapOff() + 64 * chunk);
        if (lazy) {
            r.heap->beginLazyRebuild();
            r.heap->finishScan();
        } else {
            r.heap->rebuild();
        }
        EXPECT_TRUE(r.heap->isQuarantined(lo, bytes));
        EXPECT_FALSE(r.heap->isQuarantined(lo - 1, 1));
        EXPECT_FALSE(r.heap->isQuarantined(lo + bytes, 1));
        EXPECT_FALSE(r.heap->quarantineViolation());
        EXPECT_EQ(r.heap->freeExtents(), 2u);
        EXPECT_EQ(r.heap->freeBytes(), r.heap->dataBytes() - bytes);
        test::expectFreeMapMatchesBitmap(*r.pool, *r.heap);
    }
}

}  // namespace
}  // namespace cnvm::alloc
