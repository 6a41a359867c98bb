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
#include "stats/counters.h"
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

TEST_F(AllocTest, FlippedMagicIsHealedNotReformatted)
{
    // Only a zero magic word formats the heap: one flipped bit of it
    // is a damaged header like any other, and the live block stays
    // allocated whether the next allocator scans eagerly or lazily.
    uint64_t a = heap->reserve(1000);
    heap->persistAllocate(a);
    pool->fence();
    const uint64_t blockBytes = 1024;  // header + payload, in granules
    pool->setFaultModel(
        std::make_unique<nvm::FaultModel>(nvm::FaultConfig{}));
    for (bool deferred : {false, true}) {
        SCOPED_TRACE(deferred ? "deferred" : "eager");
        pool->faults()->flipBit(
            *pool, pool->heapOff() + offsetof(AllocHeader, magic), 3);
        const auto& hdr =
            *static_cast<const AllocHeader*>(pool->at(pool->heapOff()));
        ASSERT_NE(hdr.magic, PmAllocator::kMagic);
        ASSERT_NE(hdr.magic, 0u);
        PmAllocator again(*pool, deferred);
        EXPECT_EQ(again.payloadSize(a), 1000u);
        for (int i = 0; i < 8; i++)
            EXPECT_NE(again.reserve(1000), a);
        again.finishScan();
        EXPECT_EQ(again.freeBytes(),
                  again.dataBytes() - 9 * blockBytes);
    }
}

TEST(AllocFormat, FreshPoolStoresNothingIntoItsBitmap)
{
    // A new pool's bitmap is already durably zero: format stores only
    // the quarantine table, the heap frontier and the header, and
    // leaves no line volatile.
    nvm::PoolConfig cfg;
    cfg.size = 16 << 20;
    cfg.maxThreads = 2;
    cfg.slotBytes = 64 << 10;
    auto pool = nvm::Pool::create(cfg);
    stats::Snapshot before = stats::aggregate();
    PmAllocator heap(*pool);
    stats::Snapshot d = stats::aggregate() - before;
    EXPECT_EQ(d[stats::Counter::nvmWrites], 3u);
    EXPECT_EQ(d[stats::Counter::nvmWriteBytes],
              sizeof(QuarantineTable) + sizeof(HeapFrontier) +
                  sizeof(AllocHeader));
    EXPECT_EQ(heap.frontier(), heap.dataOff());
    EXPECT_EQ(pool->cache().volatileLines(), 0u);
    EXPECT_EQ(heap.freeBytes(), heap.dataBytes());
}

TEST(AllocFormat, VolatileZeroBitmapLineIsStillWritten)
{
    // Format skips bitmap bytes that read zero only while memory is
    // the durable image. Here one bitmap line reads zero but is dirty
    // over a durable all-ones image: format must still write and
    // flush it, so losing every volatile word leaves it zero.
    nvm::PoolConfig cfg;
    cfg.size = 1 << 20;
    cfg.maxThreads = 1;
    cfg.slotBytes = 64 << 10;
    auto pool = nvm::Pool::create(cfg);
    uint64_t bitmapOff = 0;
    uint64_t bitmapBytes = 0;
    {
        PmAllocator heap(*pool);
        bitmapOff = heap.bitmapOff();
        bitmapBytes = heap.bitmapBytes();
    }
    const uint64_t line = bitmapOff + 2 * nvm::kCacheLine;
    std::vector<uint8_t> ones(nvm::kCacheLine, 0xff);
    pool->writeAt(line, ones.data(), ones.size());
    pool->persist(pool->at(line), ones.size());
    uint64_t zeroMagic = 0;
    pool->writeAt(pool->heapOff() + offsetof(AllocHeader, magic),
                  &zeroMagic, sizeof(zeroMagic));
    pool->persist(pool->at(pool->heapOff()), sizeof(zeroMagic));
    std::vector<uint8_t> zeros(nvm::kCacheLine, 0);
    pool->writeAt(line, zeros.data(), zeros.size());
    ASSERT_EQ(pool->cache().volatileLines(), 1u);

    PmAllocator heap(*pool);
    pool->simulateCrashAllLost();
    const uint8_t* bm = pool->base() + bitmapOff;
    EXPECT_TRUE(std::all_of(bm, bm + bitmapBytes,
                            [](uint8_t b) { return b == 0; }));
}

/** How a ScanRig's frontier record reads when its bitmap is stored. */
enum class Record {
    asFormatted,  ///< left as the allocator keeps it
    covering,     ///< the data area's end: the scan reads every chunk
    zeroed,       ///< fails its check: the scan falls back to all
};

const char*
recordName(Record r)
{
    switch (r) {
      case Record::asFormatted: return "record as formatted";
      case Record::covering: return "record covering the heap";
      case Record::zeroed: return "record zeroed";
    }
    return "?";
}

/**
 * A small heap whose bitmap the scan tests write straight into the
 * pool. Every size used below has a granule count that is not a
 * multiple of 64, so the bitmap's last word is partial. Bits written
 * this way were set by no allocator, so no frontier was raised over
 * them: store() first writes a record that covers them, or zeroes it.
 */
struct ScanRig {
    explicit ScanRig(size_t size, Record record = Record::asFormatted)
        : record(record)
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
        storeRecord();
    }

    /** Write the record `record` names (nothing when as formatted). */
    void
    storeRecord() const
    {
        HeapFrontier f{};
        if (record == Record::covering) {
            f.end = heap->dataOff() + heap->dataBytes();
            f.check = f.end ^ PmAllocator::kFrontierMagic;
        } else if (record == Record::asFormatted) {
            return;
        }
        pool->writeAt(PmAllocator::frontierOff(*pool), &f, sizeof(f));
    }

    std::unique_ptr<nvm::Pool> pool;
    std::unique_ptr<PmAllocator> heap;
    uint64_t granules = 0;
    Record record;
};

/** The two records a fixture that stores its own bits runs under. */
constexpr Record kStoredRecords[] = {Record::covering, Record::zeroed};

TEST(BitmapScan, FreeMapMatchesBitByBitWalkOnRandomBitmaps)
{
    // 1 MiB: 60,604 granules, a 24-byte tail chunk. 1 MiB + 8 KiB:
    // 61,112 granules, a 23-byte tail chunk. 600 KiB: 33,680 granules,
    // past the first 32,768-granule reserve() pull.
    for (auto [size, record] :
         [] {
             std::vector<std::pair<size_t, Record>> v;
             for (size_t size : {size_t{1} << 20, (size_t{1} << 20) + 8192,
                                 size_t{600} << 10}) {
                 for (Record rec : kStoredRecords)
                     v.emplace_back(size, rec);
             }
             return v;
         }()) {
        ScanRig r(size, record);
        ASSERT_NE(r.granules % 64, 0u);
        for (uint64_t seed = 1; seed <= 6; seed++) {
            SCOPED_TRACE("size " + std::to_string(size) + " seed " +
                         std::to_string(seed) + ", " + recordName(record));
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
            test::expectFrontierCoversBitmap(*r.pool, *r.heap);
            SCOPED_TRACE("beginLazyRebuild + finishScan");
            r.storeRecord();
            r.heap->beginLazyRebuild();
            r.heap->finishScan();
            test::expectFreeMapMatchesBitmap(*r.pool, *r.heap);
            test::expectFrontierCoversBitmap(*r.pool, *r.heap);
        }
    }
}

TEST(BitmapScan, OneFreeRunIsFoundWholeAtEveryBoundary)
{
    // 2.5 MiB: 158,148 granules, five pulls, a 4-granule last word.
    const uint64_t n = ScanRig(size_t{5} << 19).granules;
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
    for (Record record : kStoredRecords) {
        ScanRig r(size_t{5} << 19, record);
        for (auto [s, e] : runs) {
            SCOPED_TRACE("free run [" + std::to_string(s) + ", " +
                         std::to_string(e) + "), " + recordName(record));
            r.store(r.allocatedExcept(s, e));
            uint64_t want =
                r.heap->dataOff() + kGranule * s + sizeof(BlockHeader);
            for (bool lazy : {false, true}) {
                SCOPED_TRACE(lazy ? "lazy" : "eager");
                r.storeRecord();
                if (lazy)
                    r.heap->beginLazyRebuild();
                else
                    r.heap->rebuild();
                EXPECT_EQ(r.heap->reserve(kGranule * (e - s - 1)), want);
                EXPECT_THROW(r.heap->reserve(0), FatalError);
            }
        }
    }
}

TEST(BitmapScan, LazyPullFreesTheScannedPartOfAnOpenRun)
{
    // A fresh heap is one free run. The first lazy reserve() is served
    // from the part of it the first pull scanned, not after the scan
    // reaches the heap's end (a record that covers the heap, or none,
    // makes the scan read all of it).
    for (Record record : kStoredRecords) {
        SCOPED_TRACE(recordName(record));
        ScanRig r(size_t{5} << 19, record);
        r.storeRecord();
        r.heap->beginLazyRebuild();
        EXPECT_EQ(r.heap->reserve(0),
                  r.heap->dataOff() + sizeof(BlockHeader));
        EXPECT_GT(r.heap->freeBytes(), 0u);
        EXPECT_LT(r.heap->freeBytes(), r.heap->dataBytes() - kGranule);
        r.heap->finishScan();
        EXPECT_EQ(r.heap->freeBytes(), r.heap->dataBytes() - kGranule);
    }
}

TEST(BitmapScan, QuarantinedRangeWithClearBitsStaysOutOfTheFreeMap)
{
    // A crash between the quarantine table's fence and the fence of
    // the bits it forces leaves a quarantined range whose bits read
    // clear. Here it sits mid-chunk in a chunk that is otherwise clear
    // too, inside the heap's one free run: the scan must still force
    // it allocated, not pass the chunk over as uniform.
    for (Record record : kStoredRecords) {
        SCOPED_TRACE(recordName(record));
        ScanRig r(size_t{1} << 20, record);
        const uint64_t chunk = 3;  // inside the first reserve() pull
        const uint64_t lo =
            r.heap->dataOff() + kGranule * (512 * chunk + 100);
        const uint64_t bytes = kGranule * 40;
        r.heap->quarantine(lo, bytes, kQuarCorruptHeader);
        std::vector<uint8_t> zeros(nvm::kCacheLine, 0);
        const uint64_t line =
            r.heap->bitmapOff() + nvm::kCacheLine * chunk;
        r.pool->writeAt(line, zeros.data(), zeros.size());
        r.pool->persist(r.pool->at(line), zeros.size());
        const uint64_t wantFree = r.heap->dataBytes() - bytes;

        r.storeRecord();
        r.heap->rebuild();
        EXPECT_FALSE(r.heap->quarantineViolation());
        EXPECT_EQ(r.heap->freeBytes(), wantFree);

        SCOPED_TRACE("beginLazyRebuild + finishScan");
        r.storeRecord();
        r.heap->beginLazyRebuild();
        r.heap->finishScan();
        EXPECT_FALSE(r.heap->quarantineViolation());
        EXPECT_EQ(r.heap->freeBytes(), wantFree);

        SCOPED_TRACE("lazy reserve() pull");
        r.storeRecord();
        r.heap->beginLazyRebuild();
        uint64_t got = r.heap->reserve(0);
        EXPECT_FALSE(r.heap->isQuarantined(got - sizeof(BlockHeader),
                                           kGranule));
        EXPECT_FALSE(r.heap->quarantineViolation());
    }
}

TEST(BitmapScan, PoisonedChunkSplitsAFreeRunAroundItsQuarantine)
{
    // As formatted, the frontier sits at the data area's start: the
    // scan reads no chunk but the one the fault layer lists.
    for (auto [record, lazy] :
         {std::pair{Record::asFormatted, false},
          std::pair{Record::asFormatted, true},
          std::pair{Record::covering, false},
          std::pair{Record::covering, true},
          std::pair{Record::zeroed, false},
          std::pair{Record::zeroed, true}}) {
        SCOPED_TRACE(std::string(lazy ? "lazy, " : "eager, ") +
                     recordName(record));
        ScanRig r(size_t{1} << 20, record);
        r.storeRecord();
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
        test::expectFrontierCoversBitmap(*r.pool, *r.heap);
    }
}

/** The frontier record as it reads on media. */
HeapFrontier
mediaFrontier(const nvm::Pool& pool)
{
    HeapFrontier f{};
    std::memcpy(&f, pool.at(PmAllocator::frontierOff(pool)), sizeof(f));
    return f;
}

TEST_F(AllocTest, FrontierRisesDurablyByDoublingInWholeChunks)
{
    const uint64_t dataOff = heap->dataOff();
    EXPECT_EQ(heap->frontier(), dataOff);
    uint64_t raises = 0;
    uint64_t covered = 0;
    for (int i = 0; i < 400; i++) {
        uint64_t before = heap->frontier();
        // A reservation sets no bit, so it raises nothing: its one
        // write is the block header.
        stats::Snapshot s0 = stats::aggregate();
        uint64_t a = heap->reserve(1000);
        stats::Snapshot d = stats::aggregate() - s0;
        EXPECT_EQ(heap->frontier(), before);
        EXPECT_EQ(d[stats::Counter::fences], 0u);
        EXPECT_EQ(d[stats::Counter::nvmWrites], 1u);

        s0 = stats::aggregate();
        heap->persistAllocate(a);
        d = stats::aggregate() - s0;
        uint64_t after = heap->frontier();
        // Every committed block lies below a durable frontier.
        EXPECT_LE(a + 1000, after);
        EXPECT_EQ(mediaFrontier(*pool).end, after);
        EXPECT_EQ((after - dataOff) % PmAllocator::kChunkData, 0u);
        // The commit writes and flushes the block's bits and flushes
        // its header. A raise adds the record's write, flush and fence.
        uint64_t raised = after != before ? 1 : 0;
        if (raised != 0) {
            raises++;
            EXPECT_GE(after - dataOff, 2 * (before - dataOff));
        }
        EXPECT_EQ(d[stats::Counter::fences], raised);
        EXPECT_EQ(d[stats::Counter::flushes], 2 + raised);
        EXPECT_EQ(d[stats::Counter::nvmWrites], 1 + raised);
        covered = a + 1000 - dataOff;
    }
    pool->fence();
    // 400 KB of blocks from one 8 KiB chunk: 8, 16, ..., 512 KiB.
    EXPECT_GT(covered, 256u << 10);
    EXPECT_EQ(raises, 7u);
    test::expectFrontierCoversBitmap(*pool, *heap);
}

TEST_F(AllocTest, ScanStopsAtTheFrontier)
{
    // A bit set past the frontier by hand, which no allocator does,
    // is never read: a restart takes the rest of the heap as one run.
    // With the record zeroed the scan reads it and the rewritten
    // record covers it.
    uint64_t a = heap->reserve(100);
    heap->persistAllocate(a);
    pool->fence();
    const uint64_t past = heap->dataOff() + 4 * PmAllocator::kChunkData;
    ASSERT_GE(past, heap->frontier());
    const uint64_t g = (past - heap->dataOff()) / kGranule;
    uint8_t byte = 1;
    pool->writeAt(heap->bitmapOff() + g / 8, &byte, 1);
    pool->persist(pool->at(heap->bitmapOff() + g / 8), 1);

    EXPECT_FALSE(heap->rebuild().frontierRewritten);
    EXPECT_EQ(heap->freeBytes(), heap->dataBytes() - 128);
    EXPECT_EQ(heap->freeExtents(), 1u);

    HeapFrontier zero{};
    pool->writeAt(PmAllocator::frontierOff(*pool), &zero, sizeof(zero));
    pool->persist(pool->at(PmAllocator::frontierOff(*pool)), sizeof(zero));
    EXPECT_TRUE(heap->rebuild().frontierRewritten);
    test::expectFreeMapMatchesBitmap(*pool, *heap);
    test::expectFrontierCoversBitmap(*pool, *heap);
    EXPECT_EQ(heap->frontier(),
              heap->dataOff() + 5 * PmAllocator::kChunkData);
    EXPECT_FALSE(heap->rebuild().frontierRewritten);
}

TEST_F(AllocTest, RewrittenFrontierRisesForHealsAndCommitsPastIt)
{
    // The rewrite after a failed record covers the bits the scan read:
    // it ends where the scan's final free run starts. A hold's heal and
    // a commit that set bits past it raise it first, in setBits, as
    // every writer of set bits does.
    uint64_t a = heap->reserve(100);
    heap->persistAllocate(a);
    pool->fence();
    HeapFrontier zero{};
    pool->writeAt(PmAllocator::frontierOff(*pool), &zero, sizeof(zero));
    pool->persist(pool->at(PmAllocator::frontierOff(*pool)), sizeof(zero));
    heap->beginLazyRebuild();
    uint64_t r = heap->reserve(100);  // the first pull serves it
    const uint64_t held = heap->dataOff() + 100 * PmAllocator::kChunkData;
    heap->addHold(0, held, 4096);
    RebuildStats st = heap->finishScan();
    EXPECT_TRUE(st.frontierRewritten);
    EXPECT_GE(heap->frontier(), r + 100);
    EXPECT_LT(heap->frontier(), held);
    heap->revertBits(held + sizeof(BlockHeader), 4096 - sizeof(BlockHeader),
                     true);
    EXPECT_GE(heap->frontier(), held + 4096);
    EXPECT_EQ(mediaFrontier(*pool).end, heap->frontier());
    heap->persistAllocate(r);
    heap->releaseHolds(0);
    // Only the tail past the hold fits a block this large.
    const uint64_t big = heap->frontier() - heap->dataOff();
    uint64_t b = heap->reserve(big);
    EXPECT_GT(b + big, heap->frontier());
    heap->persistAllocate(b);
    pool->fence();
    EXPECT_GE(heap->frontier(), b + big);
    EXPECT_EQ(mediaFrontier(*pool).end, heap->frontier());
    test::expectFreeMapMatchesBitmap(*pool, *heap);
    test::expectFrontierCoversBitmap(*pool, *heap);
}

TEST_F(AllocTest, QuarantinePastTheFrontierRaisesItFirst)
{
    const uint64_t lo = heap->dataOff() + 20 * PmAllocator::kChunkData + 64;
    heap->quarantine(lo, 256, kQuarPoisonedData);
    EXPECT_GE(heap->frontier(), lo + 256);
    EXPECT_EQ(mediaFrontier(*pool).end, heap->frontier());
    test::expectFrontierCoversBitmap(*pool, *heap);
    heap->rebuild();
    EXPECT_TRUE(heap->isQuarantined(lo, 256));
    EXPECT_FALSE(heap->quarantineViolation());
    test::expectFreeMapMatchesBitmap(*pool, *heap);
}

}  // namespace
}  // namespace cnvm::alloc
