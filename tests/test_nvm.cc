/** @file Unit tests for the pool, cache model, and persistent pointers. */
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"

#include "common/rand.h"
#include "nvm/pool.h"
#include "nvm/pptr.h"
#include "sim/executor.h"
#include "stats/counters.h"

namespace cnvm::nvm {
namespace {

std::unique_ptr<Pool>
makePool(size_t size = 8 << 20)
{
    PoolConfig cfg;
    cfg.size = size;
    cfg.maxThreads = 4;
    cfg.slotBytes = 64 << 10;
    return Pool::create(cfg);
}

TEST(Pool, CreateAndLayout)
{
    auto p = makePool();
    EXPECT_EQ(p->header().magic, Pool::kMagic);
    EXPECT_EQ(p->size(), 8u << 20);
    EXPECT_EQ(p->maxThreads(), 4u);
    EXPECT_GT(p->heapOff(), 0u);
    EXPECT_LT(p->heapOff(), p->size());
    // Slots are disjoint and inside the pool.
    for (unsigned t = 0; t < 4; t++) {
        auto* s = static_cast<uint8_t*>(p->slot(t));
        EXPECT_TRUE(p->contains(s));
        EXPECT_TRUE(p->contains(s + p->slotBytes() - 1));
    }
    EXPECT_LE(p->offsetOf(p->slot(3)) + p->slotBytes(), p->heapOff());
}

TEST(Pool, WriteReadRoundtrip)
{
    auto p = makePool();
    auto* dst = static_cast<uint8_t*>(p->at(p->heapOff() + 4096));
    const char msg[] = "persistent";
    p->write(dst, msg, sizeof(msg));
    EXPECT_EQ(std::memcmp(dst, msg, sizeof(msg)), 0);
}

TEST(Pool, RootPersists)
{
    auto p = makePool();
    p->setRoot(12345);
    EXPECT_EQ(p->root(), 12345u);
}

TEST(Pool, WriteTrapFires)
{
    auto p = makePool();
    uint64_t x = 1;
    auto* dst = static_cast<uint8_t*>(p->at(p->heapOff() + 4096));
    p->armWriteTrap(2);
    p->write(dst, &x, sizeof(x));  // first write passes
    EXPECT_THROW(p->write(dst, &x, sizeof(x)), CrashInjected);
    // Disarmed after firing.
    p->write(dst, &x, sizeof(x));
}

TEST(CacheSim, UnflushedWriteRevertsOnTotalLoss)
{
    auto p = makePool();
    auto* dst = reinterpret_cast<uint64_t*>(p->at(p->heapOff() + 8192));
    uint64_t before = 0xAAAAAAAAAAAAAAAAull;
    p->write(dst, &before, sizeof(before));
    p->persist(dst, sizeof(before));  // durable floor

    uint64_t after = 0xBBBBBBBBBBBBBBBBull;
    p->write(dst, &after, sizeof(after));
    // No flush/fence: a total-loss crash must revert it.
    p->cache().crashAllLost();
    EXPECT_EQ(*dst, before);
}

TEST(CacheSim, FlushedAndFencedWriteSurvivesAnyCrash)
{
    auto p = makePool();
    auto* dst = reinterpret_cast<uint64_t*>(p->at(p->heapOff() + 8192));
    uint64_t v = 0x1234567890ABCDEFull;
    p->write(dst, &v, sizeof(v));
    p->persist(dst, sizeof(v));
    p->cache().crashAllLost();
    EXPECT_EQ(*dst, v);
}

TEST(CacheSim, FlushWithoutFenceGivesNoGuarantee)
{
    auto p = makePool();
    auto* dst = reinterpret_cast<uint64_t*>(p->at(p->heapOff() + 8192));
    uint64_t before = 1, after = 2;
    p->write(dst, &before, sizeof(before));
    p->persist(dst, sizeof(before));
    p->write(dst, &after, sizeof(after));
    p->flush(dst, sizeof(after));  // clwb but no sfence
    p->cache().crashAllLost();
    EXPECT_EQ(*dst, before);
}

TEST(CacheSim, RandomCrashTearsAtWordGranularity)
{
    auto p = makePool();
    auto* dst = static_cast<uint8_t*>(p->at(p->heapOff() + 16384));
    std::vector<uint8_t> before(256, 0x11), after(256, 0x22);
    p->write(dst, before.data(), before.size());
    p->persist(dst, before.size());
    p->write(dst, after.data(), after.size());

    Xorshift rng(99);
    p->cache().crash(rng);
    // Every 8-byte word must be entirely old or entirely new.
    int oldWords = 0, newWords = 0;
    for (size_t w = 0; w < 256; w += 8) {
        bool isOld = std::memcmp(dst + w, before.data() + w, 8) == 0;
        bool isNew = std::memcmp(dst + w, after.data() + w, 8) == 0;
        EXPECT_TRUE(isOld || isNew) << "torn word at " << w;
        oldWords += isOld;
        newWords += isNew;
    }
    // With survival 0.5 over 32 words, both outcomes should appear.
    EXPECT_GT(oldWords, 0);
    EXPECT_GT(newWords, 0);
}

TEST(CacheSim, VolatileLineAccounting)
{
    auto p = makePool();
    auto* dst = static_cast<uint8_t*>(p->at(p->heapOff() + 4096));
    EXPECT_EQ(p->cache().volatileLines(), 0u);
    uint64_t v = 7;
    p->write(dst, &v, sizeof(v));
    EXPECT_EQ(p->cache().volatileLines(), 1u);
    p->write(dst + 64, &v, sizeof(v));
    EXPECT_EQ(p->cache().volatileLines(), 2u);
    p->persist(dst, 128);
    EXPECT_EQ(p->cache().volatileLines(), 0u);
}

TEST(CacheSim, CountsFlushesAndFences)
{
    auto p = makePool();
    auto base = stats::aggregate();
    auto* dst = static_cast<uint8_t*>(p->at(p->heapOff() + 4096));
    uint64_t v = 7;
    p->write(dst, &v, sizeof(v));
    p->flush(dst, 128);  // two lines
    p->fence();
    auto delta = stats::aggregate() - base;
    EXPECT_EQ(delta[stats::Counter::flushes], 2u);
    EXPECT_EQ(delta[stats::Counter::fences], 1u);
    EXPECT_EQ(delta[stats::Counter::nvmWrites], 1u);
    EXPECT_EQ(delta[stats::Counter::nvmWriteBytes], 8u);
}

/**
 * Real std::thread stress for the sharded CacheSim: concurrent store
 * bursts (fast path + shard inserts), batched flushes, fences, and
 * O(1) volatileLines() polling, plus mutex-guarded writes to one
 * shared line so cross-thread dirty/flush transitions happen. Runs
 * under -DCNVM_SANITIZE=ON; all cross-thread accesses to pool bytes
 * are lock-ordered so the test is also TSan-clean.
 */
TEST(CacheSimConcurrency, ShardedStressSurvivesCrash)
{
    auto p = makePool(32 << 20);
    constexpr unsigned kThreads = 4;
    constexpr size_t kStripeLines = 96;  // spans several shard blocks
    const size_t iters = 1500;
    uint64_t heap = p->heapOff();
    uint64_t sharedOff = heap + 4096;
    std::mutex sharedMu;
    auto stripeOff = [&](unsigned t) {
        return heap + (64 << 10) +
               t * (kStripeLines * kCacheLine + 4096);
    };

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            uint64_t base = stripeOff(t);
            std::vector<uint64_t> lines;
            for (size_t i = 0; i < iters; i++) {
                lines.clear();
                for (size_t l = 0; l < 8; l++) {
                    uint64_t ln = (i + l * 7) % kStripeLines;
                    uint64_t off = base + ln * kCacheLine + (i % 8) * 8;
                    uint64_t v = t * 1000003 + i;
                    p->writeAt(off, &v, sizeof(v));
                    // Repeat store to the same line: fast-path food.
                    p->writeAt(off, &v, sizeof(v));
                    lines.push_back(off / kCacheLine);
                }
                p->flushLines(lines.data(), lines.size());
                p->fence();
                {
                    std::lock_guard<std::mutex> g(sharedMu);
                    uint64_t sv = t;
                    p->writeAt(sharedOff + t * 8, &sv, sizeof(sv));
                    if (i % 4 == 0)
                        p->persist(p->at(sharedOff), sizeof(sv));
                }
                if (i % 64 == 0)
                    (void)p->cache().volatileLines();
            }
            uint64_t fin = 0xF00D0000ull + t;
            p->writeAt(base, &fin, sizeof(fin));
            p->persist(p->at(base), sizeof(fin));
        });
    }
    for (auto& th : threads)
        th.join();

    // Worst-case power loss: everything fenced must survive.
    p->cache().crashAllLost();
    for (unsigned t = 0; t < kThreads; t++) {
        uint64_t got;
        std::memcpy(&got, p->at(stripeOff(t)), sizeof(got));
        EXPECT_EQ(got, 0xF00D0000ull + t);
    }
    EXPECT_EQ(p->cache().volatileLines(), 0u);
}

/**
 * Run `steps` in order, each on the real thread its first member names
 * (0 .. nThreads-1), so every thread stays one persistence domain
 * across its steps.
 */
using Step = std::pair<unsigned, std::function<void()>>;

void
inTurns(unsigned nThreads, const std::vector<Step>& steps)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < nThreads; t++) {
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < steps.size(); i++) {
                if (steps[i].first != t)
                    continue;
                while (next.load() != i)
                    std::this_thread::yield();
                steps[i].second();
                next.store(i + 1);
            }
        });
    }
    for (auto& th : threads)
        th.join();
}

TEST(CacheSimConcurrency, FenceRetiresOnlyItsOwnDomainsFlushes)
{
    // sfence orders only the issuing core's clwbs: B's flushed line
    // stays volatile across A's fence, and B's own fence retires it.
    auto p = makePool();
    auto* x = reinterpret_cast<uint64_t*>(p->at(p->heapOff() + 8192));
    auto* y = x + 64;  // another line, for the two-flusher case
    uint64_t before = 1, after = 2;
    p->write(x, &before, sizeof(before));
    p->write(y, &before, sizeof(before));
    p->persist(x, 8 * 65);
    constexpr unsigned A = 0, B = 1;
    inTurns(2, {{B,
                 [&] {
                     p->write(x, &after, sizeof(after));
                     p->flush(x, sizeof(after));
                 }},
                {A, [&] { p->fence(); }}});
    EXPECT_EQ(p->cache().volatileLines(), 1u);
    p->cache().crashAllLost();
    EXPECT_EQ(*x, before) << "A's fence retired B's clwb";

    // A line both domains flushed retires at the first fence, and the
    // second finds nothing left to retire.
    inTurns(2, {{B,
                 [&] {
                     p->write(y, &after, sizeof(after));
                     p->flush(y, sizeof(after));
                 }},
                {A,
                 [&] {
                     p->flush(y, sizeof(after));
                     p->fence();
                 }},
                {B, [&] { p->fence(); }}});
    EXPECT_EQ(p->cache().volatileLines(), 0u);
    p->cache().crashAllLost();
    EXPECT_EQ(*y, after);
}

TEST(CacheSimConcurrency, LogicalThreadsAreSeparateDomains)
{
    // The same case under sim::Executor: logical thread 1 (B) stores
    // and flushes, logical thread 0 (A) fences in the next round, both
    // on one OS thread.
    auto p = makePool();
    auto* x = reinterpret_cast<uint64_t*>(p->at(p->heapOff() + 8192));
    uint64_t before = 1, after = 2;
    p->write(x, &before, sizeof(before));
    p->persist(x, sizeof(before));
    sim::Executor ex(2);
    ex.run(2, [&](sim::ThreadCtx& ctx, size_t i) {
        if (ctx.tid() == 1 && i == 0) {
            p->write(x, &after, sizeof(after));
            p->flush(x, sizeof(after));
        }
        if (ctx.tid() == 0 && i == 1)
            p->fence();
    });
    p->cache().crashAllLost();
    EXPECT_EQ(*x, before);
}

TEST(CacheSimConcurrency, CrossDomainFlushInvalidatesFastPath)
{
    // B's second store validates B's dirty-line cache. A then flushes
    // and fences the line, so B's way no longer names a dirty line:
    // B's third store must take the slow path and snapshot the line
    // again, or a crash would keep a store that was never flushed.
    auto p = makePool();
    auto* x = reinterpret_cast<uint64_t*>(p->at(p->heapOff() + 8192));
    uint64_t v1 = 1, v2 = 2, v3 = 3;
    constexpr unsigned A = 0, B = 1;
    inTurns(2, {{B,
                 [&] {
                     p->write(x, &v1, sizeof(v1));
                     p->write(x, &v2, sizeof(v2));
                 }},
                {A,
                 [&] {
                     p->flush(x, sizeof(v2));
                     p->fence();
                 }},
                {B, [&] { p->write(x, &v3, sizeof(v3)); }}});
    EXPECT_EQ(p->cache().volatileLines(), 1u);
    p->cache().crashAllLost();
    EXPECT_EQ(*x, v2);
}

TEST(CacheSimConcurrency, CountsStayExactAcrossDomains)
{
    // writeCount() and volatileLines() are sums of per-domain counts.
    // A reader polls them while four threads store, flush and fence;
    // at each barrier they are exact.
    auto p = makePool(16 << 20);
    constexpr unsigned kThreads = 4;
    constexpr uint64_t kLines = 512;
    const uint64_t w0 = p->writeCount();
    ASSERT_EQ(p->cache().volatileLines(), 0u);
    auto lineOff = [&](unsigned t, uint64_t l) {
        return p->heapOff() + 4096 + (t * kLines + l) * kCacheLine;
    };
    std::barrier sync(kThreads + 1);
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        uint64_t last = 0;
        while (!stop.load()) {
            uint64_t w = p->writeCount() - w0;
            EXPECT_GE(w, last);
            EXPECT_LE(w, 2 * kThreads * kLines);
            EXPECT_LE(p->cache().volatileLines(), kThreads * kLines);
            last = w;
        }
    });
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (uint64_t l = 0; l < kLines; l++) {
                p->writeAt(lineOff(t, l), &l, sizeof(l));
                p->writeAt(lineOff(t, l) + 8, &l, sizeof(l));
            }
            sync.arrive_and_wait();
            sync.arrive_and_wait();
            p->flush(p->at(lineOff(t, 0)), kLines / 2 * kCacheLine);
            p->fence();
            sync.arrive_and_wait();
            sync.arrive_and_wait();
            p->flush(p->at(lineOff(t, kLines / 2)),
                     kLines / 2 * kCacheLine);
            p->fence();
            sync.arrive_and_wait();
        });
    }
    sync.arrive_and_wait();
    EXPECT_EQ(p->writeCount() - w0, 2 * kThreads * kLines);
    EXPECT_EQ(p->cache().volatileLines(), kThreads * kLines);
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    EXPECT_EQ(p->cache().volatileLines(), kThreads * kLines / 2);
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    EXPECT_EQ(p->cache().volatileLines(), 0u);
    for (auto& th : threads)
        th.join();
    stop.store(true);
    reader.join();
    EXPECT_EQ(p->writeCount() - w0, 2 * kThreads * kLines);
}

TEST(CacheSim, FenceShrinksTableAfterBurst)
{
    // A 1 MiB store under one fence grows every shard; the fence that
    // retires the burst returns each to its initial 64 slots.
    auto p = makePool();
    constexpr size_t kInitial = 64 * 64;  // shards x initial slots
    std::vector<uint8_t> burst(1 << 20, 0x5a);
    uint8_t* dst = static_cast<uint8_t*>(p->at(p->heapOff() + 4096));
    p->write(dst, burst.data(), burst.size());
    EXPECT_GT(p->cache().slotCapacity(), kInitial);
    p->persist(dst, burst.size());
    EXPECT_EQ(p->cache().volatileLines(), 0u);
    EXPECT_EQ(p->cache().slotCapacity(), kInitial);
    // A crash likewise leaves every shard at its initial size.
    p->write(dst, burst.data(), burst.size());
    p->cache().crashAllLost();
    EXPECT_EQ(p->cache().slotCapacity(), kInitial);
}

TEST(StatsConcurrency, AggregateDuringTraffic)
{
    // Four threads bump their own counters while a fifth aggregates
    // them: every read sees each total grow, and after the joins the
    // totals are exact (the exiting threads' blocks fold into the
    // registry's retired sum).
    constexpr unsigned kThreads = 4;
    constexpr uint64_t kBumps = 50000;
    const stats::Snapshot before = stats::aggregate();
    auto grown = [&](const stats::Snapshot& s, stats::Counter c) {
        return s[c] - before[c];
    };
    std::atomic<bool> go{false};
    std::atomic<unsigned> running{kThreads};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (uint64_t i = 0; i < kBumps; i++) {
                stats::bump(stats::Counter::persistChecks);
                stats::bump(stats::Counter::salvageAborts, 3);
            }
            running.fetch_sub(1);
        });
    }
    uint64_t reads = 0;
    std::thread reader([&] {
        uint64_t last = 0;
        go.store(true);
        while (running.load() > 0) {
            stats::Snapshot s = stats::aggregate();
            uint64_t checks = grown(s, stats::Counter::persistChecks);
            EXPECT_GE(checks, last);
            EXPECT_LE(checks, kThreads * kBumps);
            EXPECT_LE(grown(s, stats::Counter::salvageAborts),
                      3 * kThreads * kBumps);
            last = checks;
            reads++;
        }
    });
    for (auto& th : threads)
        th.join();
    reader.join();
    EXPECT_GT(reads, 0u);
    const stats::Snapshot after = stats::aggregate();
    EXPECT_EQ(grown(after, stats::Counter::persistChecks),
              kThreads * kBumps);
    EXPECT_EQ(grown(after, stats::Counter::salvageAborts),
              3 * kThreads * kBumps);
}

TEST(PPtr, NullAndRoundtrip)
{
    auto p = makePool();
    Pool::setCurrent(p.get());
    PPtr<uint64_t> null;
    EXPECT_TRUE(null.isNull());
    EXPECT_EQ(null.get(), nullptr);

    auto* obj = reinterpret_cast<uint64_t*>(p->at(p->heapOff() + 4096));
    auto ptr = PPtr<uint64_t>::of(obj);
    EXPECT_FALSE(ptr.isNull());
    EXPECT_EQ(ptr.get(), obj);
    EXPECT_EQ(ptr.raw(), p->offsetOf(obj));
    Pool::setCurrent(nullptr);
}

TEST(PPtr, SurvivesRemapToDifferentBase)
{
    // File-backed pool reopened: base address changes, offsets hold.
    std::string path = "/tmp/cnvm_test_remap.pool";
    uint64_t off;
    {
        PoolConfig cfg;
        cfg.path = path;
        cfg.size = 4 << 20;
        cfg.maxThreads = 2;
        cfg.slotBytes = 64 << 10;
        auto p = Pool::create(cfg);
        Pool::setCurrent(p.get());
        auto* obj =
            reinterpret_cast<uint64_t*>(p->at(p->heapOff() + 4096));
        p->write64(obj, 777);
        p->persist(obj, 8);
        off = p->offsetOf(obj);
        p->setRoot(off);
        Pool::setCurrent(nullptr);
    }
    {
        auto p = Pool::open(path);
        Pool::setCurrent(p.get());
        PPtr<uint64_t> ptr(p->root());
        EXPECT_EQ(ptr.raw(), off);
        EXPECT_EQ(*ptr, 777u);
        Pool::setCurrent(nullptr);
    }
    ::unlink(path.c_str());
}

TEST(PoolErrors, OpenMissingFileIsFatal)
{
    EXPECT_THROW(Pool::open("/tmp/cnvm_does_not_exist.pool"),
                 FatalError);
}

TEST(PoolErrors, OpenNonPoolFileIsFatal)
{
    std::string path = "/tmp/cnvm_not_a_pool.bin";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        std::string junk(1 << 20, 'x');
        std::fwrite(junk.data(), 1, junk.size(), f);
        std::fclose(f);
    }
    EXPECT_THROW(Pool::open(path), FatalError);
    ::unlink(path.c_str());
}

TEST(PoolErrors, TooSmallForMetadataIsFatal)
{
    PoolConfig cfg;
    cfg.size = 1 << 20;  // 1 MiB cannot hold 4 x 64 KiB slots + heap
    cfg.maxThreads = 32;
    cfg.slotBytes = 256 << 10;
    EXPECT_THROW(Pool::create(cfg), PanicError);
}

TEST(PoolErrors, WriteOutsidePoolIsCaught)
{
    auto p = makePool();
    uint64_t v = 1;
    EXPECT_THROW(p->write(&v, &v, sizeof(v)), PanicError);
}

/** Create a file-backed pool at `path` and release it. */
void
makePoolFile(const std::string& path, size_t size = 8 << 20)
{
    PoolConfig cfg;
    cfg.path = path;
    cfg.size = size;
    cfg.maxThreads = 4;
    cfg.slotBytes = 64 << 10;
    auto p = Pool::create(cfg);
    if (Pool::current() == p.get())
        Pool::setCurrent(nullptr);
}

/** Overwrite `n` bytes at `off` of the pool file. */
void
patchFile(const std::string& path, long off, const void* bytes,
          size_t n)
{
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, off, SEEK_SET);
    std::fwrite(bytes, 1, n, f);
    std::fclose(f);
}

PoolOpenError::Reason
openReason(const std::string& path)
{
    try {
        Pool::open(path);
    } catch (const PoolOpenError& e) {
        return e.reason();
    }
    ADD_FAILURE() << "open of " << path << " did not throw";
    return PoolOpenError::Reason::io;
}

TEST(PoolErrors, TypedReasonMissingFile)
{
    EXPECT_EQ(openReason("/tmp/cnvm_does_not_exist.pool"),
              PoolOpenError::Reason::io);
}

TEST(PoolErrors, TypedReasonTruncatedFile)
{
    std::string path = "/tmp/cnvm_truncated.pool";
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fwrite("tiny", 1, 4, f);
    std::fclose(f);
    EXPECT_EQ(openReason(path), PoolOpenError::Reason::truncated);
    ::unlink(path.c_str());
}

TEST(PoolErrors, TypedReasonBadMagic)
{
    std::string path = "/tmp/cnvm_badmagic.pool";
    makePoolFile(path);
    uint64_t junk = 0x4141414141414141ULL;
    patchFile(path, 0, &junk, sizeof(junk));
    EXPECT_EQ(openReason(path), PoolOpenError::Reason::badMagic);
    ::unlink(path.c_str());
}

TEST(PoolErrors, TypedReasonBadVersion)
{
    // A future layout, and layout 2, whose per-field fnv1a checksums
    // this build would read as damage on every record.
    ASSERT_EQ(Pool::kVersion, 3u);
    for (uint64_t version : {Pool::kVersion + 7, uint64_t{2}}) {
        std::string path = "/tmp/cnvm_badversion.pool";
        makePoolFile(path);
        patchFile(path, offsetof(PoolHeader, version), &version,
                  sizeof(version));
        EXPECT_EQ(openReason(path), PoolOpenError::Reason::badVersion)
            << "version " << version;
        ::unlink(path.c_str());
    }
}

TEST(PoolErrors, TypedReasonSizeMismatchOnReopen)
{
    std::string path = "/tmp/cnvm_sizemismatch.pool";
    makePoolFile(path);
    // Simulate a wrong-size reopen: the file grew behind our back.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    char zero = 0;
    std::fwrite(&zero, 1, 1, f);
    std::fclose(f);
    EXPECT_EQ(openReason(path), PoolOpenError::Reason::sizeMismatch);
    ::unlink(path.c_str());
}

TEST(PoolErrors, TypedReasonCorruptHeaderOffsets)
{
    std::string path = "/tmp/cnvm_corrupthdr.pool";
    makePoolFile(path);
    uint64_t insane = ~0ULL;
    patchFile(path, offsetof(PoolHeader, heapOff), &insane,
              sizeof(insane));
    EXPECT_EQ(openReason(path), PoolOpenError::Reason::corruptHeader);
    ::unlink(path.c_str());
}

TEST(PoolErrors, CleanReopenStillWorks)
{
    std::string path = "/tmp/cnvm_cleanreopen.pool";
    makePoolFile(path);
    auto p = Pool::open(path);
    EXPECT_EQ(p->header().magic, Pool::kMagic);
    if (Pool::current() == p.get())
        Pool::setCurrent(nullptr);
    p.reset();
    ::unlink(path.c_str());
}

TEST(FaultModel, InjectionIsDeterministicFromSeed)
{
    auto run = [](uint64_t seed) {
        auto p = makePool();
        FaultConfig fc;
        fc.seed = seed;
        fc.bitFlips = 4;
        fc.poisons = 2;
        fc.transients = 2;
        fc.regionMask = kFaultAllRegions;
        p->setFaultModel(std::make_unique<FaultModel>(fc));
        p->faults()->inject(*p);
        return p->faults()->taintedLines();
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
}

TEST(FaultModel, PoisonedLineRaisesOnGuardedReadOnly)
{
    auto p = makePool();
    FaultConfig fc;
    fc.poisons = 1;
    p->setFaultModel(std::make_unique<FaultModel>(fc));
    uint64_t off = p->heapOff() + 256;
    p->faults()->poisonAt(off);
    // Unguarded access to the mapped bytes stays a plain load — only
    // the guarded (recovery-path) read observes the machine check.
    volatile uint8_t sink = *(p->base() + off);
    (void)sink;
    EXPECT_THROW(p->checkRead(p->at(off), 8), MediaFaultError);
    EXPECT_TRUE(p->faults()->poisoned(off, 1));
}

TEST(FaultModel, WriteClearsPoisonAndTaint)
{
    auto p = makePool();
    FaultConfig fc;
    fc.poisons = 1;
    p->setFaultModel(std::make_unique<FaultModel>(fc));
    uint64_t off = p->heapOff() + 512;
    p->faults()->poisonAt(off);
    p->faults()->flipBit(*p, off + 64, 3);
    EXPECT_TRUE(p->faults()->poisoned(off, 1));
    EXPECT_TRUE(p->faults()->tainted(off + 64, 1));
    uint8_t fresh[128] = {};
    p->write(p->at(off), fresh, sizeof(fresh));
    EXPECT_FALSE(p->faults()->poisoned(off, 1));
    EXPECT_FALSE(p->faults()->tainted(off + 64, 1));
    p->checkRead(p->at(off), 128);  // must not throw
}

TEST(FaultModel, TransientFaultSucceedsWithinRetryBudget)
{
    auto p = makePool();
    FaultConfig fc;
    fc.maxRetries = 4;
    p->setFaultModel(std::make_unique<FaultModel>(fc));
    uint64_t off = p->heapOff() + 1024;
    p->faults()->poisonAt(off, /* transientCount */ 2);
    // Two failing reads are absorbed by the retry loop.
    p->checkRead(p->at(off), 8);
    EXPECT_GE(p->faults()->retries(), 2u);
    // Retries cleared the transient; later reads are clean.
    p->checkRead(p->at(off), 8);
}

TEST(FaultModel, TransientFaultExhaustsRetryBudget)
{
    auto p = makePool();
    FaultConfig fc;
    fc.maxRetries = 2;
    p->setFaultModel(std::make_unique<FaultModel>(fc));
    uint64_t off = p->heapOff() + 2048;
    p->faults()->poisonAt(off, /* transientCount */ 100);
    try {
        p->checkRead(p->at(off), 8);
        FAIL() << "retry exhaustion did not raise";
    } catch (const MediaFaultError& e) {
        EXPECT_TRUE(e.transient());
        EXPECT_EQ(e.off() / 64, off / 64);
    }
}

TEST(FaultModel, RegionTargetingRespectsTheMask)
{
    auto p = makePool();
    FaultConfig fc;
    fc.seed = 9;
    fc.bitFlips = 16;
    fc.regionMask = kFaultHeap;
    p->setFaultModel(std::make_unique<FaultModel>(fc));
    p->faults()->inject(*p);
    // Every tainted line must fall inside the heap region.
    for (uint64_t line : p->faults()->taintedLines()) {
        uint64_t off = line * 64;
        EXPECT_GE(off, p->heapOff());
        EXPECT_LT(off, p->heapOff() + p->heapSize());
    }
    EXPECT_GT(p->faults()->flipsInjected(), 0u);
}

}  // namespace
}  // namespace cnvm::nvm
