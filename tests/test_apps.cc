/**
 * @file
 * Tests for the application layer: KV server (memcached model),
 * vacation (STAMP), and yada (Ruppert refinement) — functional
 * behaviour, cross-runtime agreement, and crash recovery.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <thread>
#include <vector>

#include "apps/kv/kv_server.h"
#include "apps/vacation/vacation.h"
#include "apps/yada/yada.h"
#include "testutil.h"

// Counting replacements of the global operator new and delete for
// this test binary (the allocation tests below read tNewCalls). Every
// form a replaced new can reach is replaced, so memory a sanitizer
// runtime's new handed out never reaches a replaced delete or back.
namespace {

/** Calls of the global operator new made on this thread. */
thread_local uint64_t tNewCalls = 0;

void*
countedAlloc(size_t n) noexcept
{
    tNewCalls++;
    return std::malloc(n == 0 ? 1 : n);
}

// Out of line: inlined into a delete, GCC's -Wmismatched-new-delete
// would see a new-expression's pointer reach free().
__attribute__((noinline)) void
release(void* p) noexcept
{
    std::free(p);
}

}  // namespace

void*
operator new(size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void* operator new(size_t n, const std::nothrow_t&) noexcept { return countedAlloc(n); }
void* operator new[](size_t n, const std::nothrow_t&) noexcept { return countedAlloc(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, size_t) noexcept { release(p); }
void operator delete[](void* p, size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace cnvm::test {
namespace {

using txn::RuntimeKind;

class KvServerTest : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(KvServerTest, MemslapStyleChurnMatchesModel)
{
    Harness h(GetParam(), rt::ClobberPolicy::refined, 64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 8;
    cfg.bucketsPerShard = 64;
    apps::KvServer server(eng, 0, cfg);

    std::map<std::string, std::string> model;
    Xorshift rng(5);
    for (int i = 0; i < 600; i++) {
        char key[17];
        std::snprintf(key, sizeof(key), "key-%012d",
                      static_cast<int>(rng.nextUint(150)));
        int op = static_cast<int>(rng.nextUint(10));
        if (op < 6) {
            std::string val(64, 'a' + static_cast<char>(i % 26));
            server.set(key, val);
            model[key] = val;
        } else if (op < 8) {
            EXPECT_EQ(server.del(key), model.erase(key) > 0);
        } else {
            ds::LookupResult r;
            bool found = server.get(key, &r);
            auto it = model.find(key);
            ASSERT_EQ(found, it != model.end());
            if (found)
                ASSERT_EQ(r.str(), it->second);
        }
    }
    EXPECT_EQ(server.itemCount(), model.size());
}

TEST_P(KvServerTest, SpinAndRwLockModesBehaveIdentically)
{
    Harness h(GetParam(), rt::ClobberPolicy::refined, 64ULL << 20);
    auto eng = h.engine();
    for (auto mode : {apps::KvServer::LockMode::spin,
                      apps::KvServer::LockMode::rw}) {
        apps::KvServer::Config cfg;
        cfg.shards = 4;
        cfg.bucketsPerShard = 32;
        cfg.lockMode = mode;
        apps::KvServer server(eng, 0, cfg);
        for (int i = 0; i < 100; i++)
            server.set("k" + std::to_string(i), "v" + std::to_string(i));
        for (int i = 0; i < 100; i++) {
            ds::LookupResult r;
            ASSERT_TRUE(server.get("k" + std::to_string(i), &r));
            ASSERT_EQ(r.str(), "v" + std::to_string(i));
        }
    }
}

TEST_P(KvServerTest, ConcurrentRealThreadsMatchPerThreadModels)
{
    // Real std::threads (not the logical executor), one engine slot
    // each, hammering mixed set/get/del over a partitioned keyspace.
    // Shard locks serialize conflicting transactions; each thread's
    // slice must match its private model exactly.
    for (auto mode : {apps::KvServer::LockMode::spin,
                      apps::KvServer::LockMode::rw}) {
        Harness h(GetParam(), rt::ClobberPolicy::refined,
                  96ULL << 20);
        auto eng = h.engine();
        apps::KvServer::Config cfg;
        cfg.shards = 16;
        cfg.bucketsPerShard = 64;
        cfg.lockMode = mode;
        apps::KvServer server(eng, 0, cfg);

        constexpr int kThreads = 4;
        constexpr int kOpsPerThread = 400;
        std::vector<std::map<std::string, std::string>> models(
            kThreads);
        std::vector<std::thread> threads;
        std::atomic<int> mismatches{0};
        for (int t = 0; t < kThreads; t++) {
            threads.emplace_back([&, t] {
                eng.bindThisThread(static_cast<unsigned>(t));
                auto& model = models[t];
                Xorshift rng(100 + t);
                for (int i = 0; i < kOpsPerThread; i++) {
                    std::string key =
                        "t" + std::to_string(t) + "-k" +
                        std::to_string(rng.nextUint(50));
                    auto op = rng.nextUint(10);
                    if (op < 6) {
                        std::string val =
                            "v" + std::to_string(t) + "-" +
                            std::to_string(i);
                        server.set(key, val);
                        model[key] = val;
                    } else if (op < 8) {
                        bool had = server.del(key);
                        if (had != (model.erase(key) > 0))
                            mismatches++;
                    } else {
                        ds::LookupResult r;
                        bool found = server.get(key, &r);
                        auto it = model.find(key);
                        if (found != (it != model.end()) ||
                            (found && r.str() != it->second))
                            mismatches++;
                    }
                }
            });
        }
        for (auto& th : threads)
            th.join();
        EXPECT_EQ(mismatches.load(), 0);

        size_t expect = 0;
        for (const auto& model : models) {
            expect += model.size();
            for (const auto& [k, v] : model) {
                ds::LookupResult r;
                ASSERT_TRUE(server.get(k, &r)) << k;
                EXPECT_EQ(r.str(), v);
            }
        }
        EXPECT_EQ(server.itemCount(), expect);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, KvServerTest,
    ::testing::Values(RuntimeKind::clobber, RuntimeKind::undo,
                      RuntimeKind::redo),
    [](const auto& info) { return rt::kindName(info.param); });

TEST(KvServerCrash, InterruptedSetsRecover)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 4;
    cfg.bucketsPerShard = 32;
    apps::KvServer server(eng, 0, cfg);

    for (int i = 0; i < 50; i++)
        server.set("stable" + std::to_string(i), "value");

    Xorshift rng(8);
    int crashes = 0;
    for (int i = 0; i < 60; i++) {
        std::string key = "crash" + std::to_string(i);
        h.pool->armWriteTrap(1 + rng.nextUint(25));
        try {
            server.set(key, "payload-" + std::to_string(i));
        } catch (const nvm::CrashInjected&) {
            crashes++;
            h.pool->simulateCrash(i);
            h.runtime->recover();
        }
        h.pool->armWriteTrap(0);
    }
    EXPECT_GT(crashes, 10);
    // All stable keys must have survived; crash keys either absent or
    // complete (clobber completes everything past the v_log persist).
    for (int i = 0; i < 50; i++) {
        ds::LookupResult r;
        ASSERT_TRUE(server.get("stable" + std::to_string(i), &r));
    }
    for (int i = 0; i < 60; i++) {
        ds::LookupResult r;
        if (server.get("crash" + std::to_string(i), &r))
            ASSERT_EQ(r.str(), "payload-" + std::to_string(i));
    }
}

/**
 * A warmed-up store of 64 keys for counting heap allocations: every
 * key has been set twice and read, so each per-slot buffer has grown
 * to what a set of its value size needs.
 */
struct WarmStore {
    explicit WarmStore(RuntimeKind kind)
        : h(kind, rt::ClobberPolicy::refined, 64ULL << 20),
          eng(h.engine()), server(eng, 0, config())
    {
        for (int i = 0; i < kKeys; i++)
            keys.push_back(strprintf("key-%012d", i));
        for (int round = 0; round < 2; round++) {
            for (const std::string& k : keys) {
                server.set(k, round == 0 ? longVal : shortVal, 0);
                server.get(k, result.get());
            }
        }
    }

    static apps::KvServer::Config
    config()
    {
        apps::KvServer::Config cfg;
        cfg.shards = 8;
        cfg.bucketsPerShard = 64;
        return cfg;
    }

    static constexpr int kKeys = 64;
    Harness h;
    txn::Engine eng;
    apps::KvServer server;
    std::vector<std::string> keys;
    const std::string shortVal = std::string(24, 's');
    const std::string longVal = std::string(40, 'l');
    std::unique_ptr<apps::KvReadResult> result =
        std::make_unique<apps::KvReadResult>();
};

/**
 * The fixed cost of a transaction is its persistence, not the heap:
 * after warm-up an in-place set and a get make no heap allocation.
 * txn::run serializes the arguments into ArgWriter's inline buffer,
 * and every per-slot buffer keeps its capacity between transactions.
 * (Pool layout v2 made 5 per set and 4 per get here, all of them the
 * argument vector growing.) Mnemosyne is left out: its volatile write
 * set is a std::unordered_map, one node per word a set writes.
 */
TEST(KvServerAllocation, InPlaceSetAndGetAllocateNothing)
{
    for (RuntimeKind kind : {RuntimeKind::clobber, RuntimeKind::undo}) {
        WarmStore w(kind);
        uint64_t before = tNewCalls;
        for (int i = 0; i < 1000; i++)
            w.server.set(w.keys[i % WarmStore::kKeys], w.shortVal,
                         static_cast<uint32_t>(i));
        uint64_t setNews = tNewCalls - before;
        before = tNewCalls;
        int found = 0;
        for (int i = 0; i < 1000; i++)
            found += w.server.get(w.keys[i % WarmStore::kKeys],
                                  w.result.get());
        uint64_t getNews = tNewCalls - before;
        EXPECT_EQ(setNews, 0u) << static_cast<int>(kind);
        EXPECT_EQ(getNews, 0u) << static_cast<int>(kind);
        EXPECT_EQ(found, 1000);
    }
}

/**
 * A set that changes a value's size replaces its item: one pmalloc
 * and one pfree in one transaction. After warm-up that allocates
 * nothing on clobber and pmdk either: the allocator's free map and
 * reservation list are flat vectors that keep their capacity (the
 * std::map and std::multimap nodes they replaced made 4.8 heap
 * allocations per set here; pool layout v2 made 13.3). Mnemosyne's
 * write set is a std::unordered_map, one node per word a set writes.
 */
TEST(KvServerAllocation, AllocatingSetAllocatesOnlyForMnemosyneWriteSet)
{
    struct Case {
        RuntimeKind kind;
        uint64_t maxPerSet;
    };
    for (Case c : {Case{RuntimeKind::clobber, 0},
                   Case{RuntimeKind::undo, 0},
                   Case{RuntimeKind::redo, 11}}) {
        WarmStore w(c.kind);
        constexpr int kSets = 1024;
        auto sizeChangingSets = [&] {
            for (int i = 0; i < kSets; i++) {
                bool odd = (i / WarmStore::kKeys) % 2 != 0;
                w.server.set(w.keys[i % WarmStore::kKeys],
                             odd ? w.shortVal : w.longVal, 0);
            }
        };
        // Two passes bring the free map to its largest extent count,
        // and its vectors to the capacity that count needs.
        sizeChangingSets();
        sizeChangingSets();
        uint64_t before = tNewCalls;
        sizeChangingSets();
        uint64_t news = tNewCalls - before;
        EXPECT_LE(news, c.maxPerSet * kSets) << static_cast<int>(c.kind);
    }
}

class VacationTest
    : public ::testing::TestWithParam<apps::TableKind> {};

TEST_P(VacationTest, TasksKeepTablesConsistent)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              128ULL << 20);
    auto eng = h.engine();
    apps::Vacation::Config cfg;
    cfg.tableKind = GetParam();
    cfg.recordsPerTable = 128;
    cfg.queriesPerTask = 4;
    apps::Vacation vac(eng, 0, cfg);

    ASSERT_TRUE(vac.validate());
    // Action 99 (1 task in 100) edits the item tables: seeds 469 and
    // 566 remove an item, seed 529 adds one.
    for (uint64_t seed = 1; seed <= 600; seed++)
        vac.runTask(seed);
    EXPECT_TRUE(vac.validate());
    EXPECT_GT(vac.totalReservations(), 0u);
}

TEST_P(VacationTest, CrashSweepPreservesAccounting)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              128ULL << 20);
    auto eng = h.engine();
    apps::Vacation::Config cfg;
    cfg.tableKind = GetParam();
    cfg.recordsPerTable = 96;
    cfg.queriesPerTask = 3;
    apps::Vacation vac(eng, 0, cfg);

    Xorshift rng(31);
    int crashes = 0;
    for (uint64_t seed = 1; seed <= 250; seed++) {
        if (rng.nextBool(0.4))
            h.pool->armWriteTrap(1 + rng.nextUint(60));
        try {
            vac.runTask(seed);
        } catch (const nvm::CrashInjected&) {
            crashes++;
            h.pool->simulateCrash(seed);
            h.runtime->recover();
        }
        h.pool->armWriteTrap(0);
        if (seed % 50 == 0)
            ASSERT_TRUE(vac.validate()) << "after task " << seed;
    }
    EXPECT_GT(crashes, 10);
    EXPECT_TRUE(vac.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Tables, VacationTest,
    ::testing::Values(apps::TableKind::rbtree,
                      apps::TableKind::avltree),
    [](const auto& info) {
        return info.param == apps::TableKind::rbtree ? "rbtree"
                                                     : "avltree";
    });

TEST(VacationRuntimes, CrashSweepUnderRollbackRuntimes)
{
    // The paper's re-execution recovery is Clobber-NVM's; the
    // roll-back baselines must keep vacation's accounting consistent
    // under the same crash storm.
    for (auto kind : {RuntimeKind::undo, RuntimeKind::redo}) {
        Harness h(kind, rt::ClobberPolicy::refined, 128ULL << 20);
        auto eng = h.engine();
        apps::Vacation::Config cfg;
        cfg.recordsPerTable = 96;
        cfg.queriesPerTask = 3;
        apps::Vacation vac(eng, 0, cfg);

        Xorshift rng(61);
        int crashes = 0;
        for (uint64_t seed = 1; seed <= 200; seed++) {
            if (rng.nextBool(0.4))
                h.pool->armWriteTrap(1 + rng.nextUint(60));
            try {
                vac.runTask(seed);
            } catch (const nvm::CrashInjected&) {
                crashes++;
                h.pool->simulateCrash(seed);
                h.runtime->recover();
            }
            h.pool->armWriteTrap(0);
        }
        EXPECT_GT(crashes, 10);
        EXPECT_TRUE(vac.validate())
            << "runtime " << h.runtime->name();
    }
}

TEST(YadaRuntimes, CrashSweepUnderRollbackRuntimes)
{
    for (auto kind : {RuntimeKind::undo, RuntimeKind::redo}) {
        Harness h(kind, rt::ClobberPolicy::refined, 128ULL << 20);
        auto eng = h.engine();
        apps::Yada::Config cfg;
        cfg.gridSide = 8;
        cfg.angleConstraintDeg = 16.0;
        apps::Yada yada(eng, 0, cfg);

        Xorshift rng(53);
        int crashes = 0;
        uint64_t steps = 0;
        while (yada.hasWork() && steps < 4000) {
            if (rng.nextBool(0.25))
                h.pool->armWriteTrap(1 + rng.nextUint(80));
            try {
                yada.refineStep();
            } catch (const nvm::CrashInjected&) {
                crashes++;
                h.pool->simulateCrash(steps);
                h.runtime->recover();
            }
            h.pool->armWriteTrap(0);
            steps++;
        }
        EXPECT_GT(crashes, 5) << h.runtime->name();
        EXPECT_FALSE(yada.hasWork()) << h.runtime->name();
        EXPECT_TRUE(yada.validate(/* requireQuality */ true))
            << h.runtime->name();
    }
}

TEST(VacationRuntimes, AllRuntimesAgree)
{
    for (auto kind : {RuntimeKind::undo, RuntimeKind::redo,
                      RuntimeKind::clobber}) {
        Harness h(kind, rt::ClobberPolicy::refined, 128ULL << 20);
        auto eng = h.engine();
        apps::Vacation::Config cfg;
        cfg.recordsPerTable = 64;
        apps::Vacation vac(eng, 0, cfg);
        for (uint64_t seed = 1; seed <= 150; seed++)
            vac.runTask(seed);
        ASSERT_TRUE(vac.validate());
    }
}

TEST(YadaTest, InitialTriangulationIsValid)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              128ULL << 20);
    auto eng = h.engine();
    apps::Yada::Config cfg;
    cfg.gridSide = 10;
    cfg.angleConstraintDeg = 18.0;
    apps::Yada yada(eng, 0, cfg);

    // Euler: for a triangulated convex polygon with I interior and
    // H hull points, triangles = 2I + H - 2.
    EXPECT_TRUE(yada.validate(/* requireQuality */ false));
    EXPECT_EQ(yada.pointCount(), 104u);  // 100 grid + 4 corners
    EXPECT_EQ(yada.meshSize(), 2 * 100 + 4 - 2);
}

TEST(YadaTest, RefinementReachesAngleConstraint)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              128ULL << 20);
    auto eng = h.engine();
    apps::Yada::Config cfg;
    cfg.gridSide = 10;
    cfg.angleConstraintDeg = 18.0;
    apps::Yada yada(eng, 0, cfg);

    uint64_t before = yada.meshSize();
    uint64_t steps = yada.refineAll();
    EXPECT_FALSE(yada.hasWork());
    EXPECT_GT(steps, 0u);
    EXPECT_GT(yada.meshSize(), before);
    EXPECT_TRUE(yada.validate(/* requireQuality */ true));
}

TEST(YadaTest, RefinementSurvivesCrashes)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              128ULL << 20);
    auto eng = h.engine();
    apps::Yada::Config cfg;
    cfg.gridSide = 8;
    cfg.angleConstraintDeg = 16.0;
    apps::Yada yada(eng, 0, cfg);

    Xorshift rng(77);
    int crashes = 0;
    uint64_t steps = 0;
    while (yada.hasWork() && steps < 4000) {
        if (rng.nextBool(0.25))
            h.pool->armWriteTrap(1 + rng.nextUint(80));
        try {
            yada.refineStep();
        } catch (const nvm::CrashInjected&) {
            crashes++;
            h.pool->simulateCrash(steps);
            h.runtime->recover();
        }
        h.pool->armWriteTrap(0);
        steps++;
    }
    EXPECT_GT(crashes, 5);
    EXPECT_FALSE(yada.hasWork());
    EXPECT_TRUE(yada.validate(/* requireQuality */ true));
}

}  // namespace
}  // namespace cnvm::test
