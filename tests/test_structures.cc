/**
 * @file
 * Tests of the persistent data structures across every runtime:
 * functional behaviour, structural invariants, crash recovery, and
 * real-OS-thread safety.
 */
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "apps/kv/kv_server.h"
#include "structures/avltree.h"
#include "structures/bptree.h"
#include "structures/hashmap.h"
#include "structures/kv.h"
#include "structures/list.h"
#include "structures/rbtree.h"
#include "structures/skiplist.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using txn::RuntimeKind;

std::string
keyOf(uint64_t i)
{
    // 8-byte binary keys, scrambled, as the YCSB benchmark uses.
    uint64_t k = mixHash(i);
    std::string s(8, '\0');
    for (int b = 7; b >= 0; b--) {
        s[b] = static_cast<char>(k & 0xff);
        k >>= 8;
    }
    return s;
}

std::string
valOf(uint64_t i, size_t len = 32)
{
    std::string s(len, '\0');
    Xorshift rng(i * 77 + 1);
    for (auto& c : s)
        c = static_cast<char>('a' + rng.nextUint(26));
    return s;
}

ds::KvConfig
smallCfg()
{
    ds::KvConfig cfg;
    cfg.hashShards = 16;
    cfg.hashBucketsPerShard = 64;
    cfg.lockShards = 64;
    return cfg;
}

struct KvCase {
    std::string structure;
    RuntimeKind kind;
};

class KvStructures : public ::testing::TestWithParam<KvCase> {};

TEST_P(KvStructures, InsertLookupRemoveAgainstModel)
{
    auto [structure, kind] = GetParam();
    Harness h(kind);
    auto eng = h.engine();
    auto kv = ds::makeKv(structure, eng, 0, smallCfg());

    std::map<std::string, std::string> model;
    Xorshift rng(99);
    for (uint64_t i = 0; i < 400; i++) {
        uint64_t op = rng.nextUint(10);
        uint64_t idx = rng.nextUint(120);
        std::string k = keyOf(idx);
        if (op < 6) {
            std::string v = valOf(i, 16 + idx % 48);
            kv->insert(k, v);
            model[k] = v;
        } else if (op < 8) {
            bool removed = kv->remove(k);
            EXPECT_EQ(removed, model.erase(k) > 0) << "op " << i;
        } else {
            ds::LookupResult r;
            bool found = kv->lookup(k, &r);
            auto it = model.find(k);
            ASSERT_EQ(found, it != model.end()) << "op " << i;
            if (found)
                ASSERT_EQ(r.str(), it->second) << "op " << i;
        }
    }
    // Final full verification.
    for (const auto& [k, v] : model) {
        ds::LookupResult r;
        ASSERT_TRUE(kv->lookup(k, &r));
        ASSERT_EQ(r.str(), v);
    }
}

TEST_P(KvStructures, ReattachAfterCleanRestart)
{
    auto [structure, kind] = GetParam();
    if (kind == RuntimeKind::noLog)
        GTEST_SKIP() << "no durability contract";
    Harness h(kind);
    auto eng = h.engine();
    uint64_t rootOff;
    {
        auto kv = ds::makeKv(structure, eng, 0, smallCfg());
        for (uint64_t i = 0; i < 100; i++)
            kv->insert(keyOf(i), valOf(i));
        rootOff = kv->rootOff();
    }
    // Simulated power-off after the last commit + fresh handles.
    h.pool->cache().crashAllLost();
    h.runtime->recover();
    auto kv = ds::makeKv(structure, eng, rootOff, smallCfg());
    for (uint64_t i = 0; i < 100; i++) {
        ds::LookupResult r;
        ASSERT_TRUE(kv->lookup(keyOf(i), &r)) << i;
        ASSERT_EQ(r.str(), valOf(i));
    }
}

TEST_P(KvStructures, CrashSweepKeepsStructureConsistent)
{
    auto [structure, kind] = GetParam();
    if (kind == RuntimeKind::noLog || kind == RuntimeKind::ido)
        GTEST_SKIP() << "not a crash-recoverable configuration";
    Harness h(kind);
    auto eng = h.engine();
    auto kv = ds::makeKv(structure, eng, 0, smallCfg());

    // Committed base load.
    std::map<std::string, std::string> model;
    for (uint64_t i = 0; i < 150; i++) {
        kv->insert(keyOf(i), valOf(i));
        model[keyOf(i)] = valOf(i);
    }

    Xorshift rng(4242);
    size_t crashes = 0;
    for (uint64_t i = 150; i < 270; i++) {
        std::string k = keyOf(i);
        std::string v = valOf(i);
        // Crash at a pseudo-random write inside the transaction.
        uint64_t trap = 1 + rng.nextUint(40);
        h.pool->armWriteTrap(trap);
        bool crashed = false;
        try {
            kv->insert(k, v);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            crashes++;
        }
        h.pool->armWriteTrap(0);
        if (crashed) {
            if (rng.nextBool(0.5))
                h.pool->cache().crashAllLost();
            else
                h.pool->simulateCrash(i);
            h.runtime->recover();
            // Fresh volatile handle, as after a restart.
            kv = ds::makeKv(structure, eng, kv->rootOff(), smallCfg());
        }
        // The interrupted key is fully present or fully absent.
        ds::LookupResult r;
        if (kv->lookup(k, &r)) {
            ASSERT_EQ(r.str(), v) << "iteration " << i;
            model[k] = v;
        } else {
            ASSERT_TRUE(crashed) << "iteration " << i;
        }
    }
    EXPECT_GT(crashes, 20u);

    // Every committed entry survived every crash.
    for (const auto& [k, v] : model) {
        ds::LookupResult r;
        ASSERT_TRUE(kv->lookup(k, &r));
        ASSERT_EQ(r.str(), v);
    }
}

TEST_P(KvStructures, RemoveCrashSweepNeverLosesOtherKeys)
{
    auto [structure, kind] = GetParam();
    if (kind == RuntimeKind::noLog || kind == RuntimeKind::ido)
        GTEST_SKIP() << "not a crash-recoverable configuration";
    Harness h(kind);
    auto eng = h.engine();
    auto kv = ds::makeKv(structure, eng, 0, smallCfg());

    std::map<std::string, std::string> model;
    for (uint64_t i = 0; i < 120; i++) {
        kv->insert(keyOf(i), valOf(i));
        model[keyOf(i)] = valOf(i);
    }

    Xorshift rng(2121);
    size_t crashes = 0;
    for (uint64_t i = 0; i < 80; i++) {
        std::string k = keyOf(i);
        h.pool->armWriteTrap(1 + rng.nextUint(30));
        bool crashed = false;
        try {
            kv->remove(k);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            crashes++;
            if (rng.nextBool(0.5))
                h.pool->cache().crashAllLost();
            else
                h.pool->simulateCrash(i);
            h.runtime->recover();
            kv = ds::makeKv(structure, eng, kv->rootOff(), smallCfg());
        }
        h.pool->armWriteTrap(0);
        // The removed key is gone or fully intact; track the outcome.
        ds::LookupResult r;
        if (kv->lookup(k, &r)) {
            ASSERT_TRUE(crashed) << "iteration " << i;
            ASSERT_EQ(r.str(), model[k]);
        } else {
            model.erase(k);
        }
    }
    EXPECT_GT(crashes, 10u);
    for (const auto& [k, v] : model) {
        ds::LookupResult r;
        ASSERT_TRUE(kv->lookup(k, &r)) << k.size();
        ASSERT_EQ(r.str(), v);
    }
}

TEST_P(KvStructures, UpdateCrashSweepIsAtomicPerKey)
{
    auto [structure, kind] = GetParam();
    if (kind == RuntimeKind::noLog || kind == RuntimeKind::ido)
        GTEST_SKIP() << "not a crash-recoverable configuration";
    Harness h(kind);
    auto eng = h.engine();
    auto kv = ds::makeKv(structure, eng, 0, smallCfg());

    std::map<std::string, std::string> model;
    for (uint64_t i = 0; i < 60; i++) {
        kv->insert(keyOf(i), valOf(i));
        model[keyOf(i)] = valOf(i);
    }

    Xorshift rng(777);
    size_t crashes = 0;
    for (uint64_t round = 0; round < 120; round++) {
        uint64_t idx = rng.nextUint(60);
        std::string k = keyOf(idx);
        // Alternate same-size (in-place) and different-size updates.
        size_t len = round % 2 == 0 ? 32 : 16 + round % 40;
        std::string v = valOf(1000 + round, len);
        h.pool->armWriteTrap(1 + rng.nextUint(25));
        bool crashed = false;
        try {
            kv->insert(k, v);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            crashes++;
            if (rng.nextBool(0.5))
                h.pool->cache().crashAllLost();
            else
                h.pool->simulateCrash(round);
            h.runtime->recover();
            kv = ds::makeKv(structure, eng, kv->rootOff(), smallCfg());
        }
        h.pool->armWriteTrap(0);
        // The key must hold either the old or the new value, whole.
        ds::LookupResult r;
        ASSERT_TRUE(kv->lookup(k, &r)) << "round " << round;
        if (r.str() == v) {
            model[k] = v;
        } else {
            ASSERT_EQ(r.str(), model[k]) << "round " << round;
            ASSERT_TRUE(crashed) << "round " << round;
        }
    }
    EXPECT_GT(crashes, 15u);
}

std::string
caseName(const ::testing::TestParamInfo<KvCase>& info)
{
    return info.param.structure + "_" + rt::kindName(info.param.kind);
}

std::vector<KvCase>
allCases()
{
    std::vector<KvCase> cases;
    for (const auto& s :
         {"list", "hashmap", "skiplist", "rbtree", "bptree"}) {
        for (auto k : {RuntimeKind::noLog, RuntimeKind::undo,
                       RuntimeKind::redo, RuntimeKind::clobber,
                       RuntimeKind::atlas}) {
            cases.push_back({s, k});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStructures, KvStructures,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(RbTreeInvariants, HoldUnderInsertAndDelete)
{
    Harness h(RuntimeKind::clobber);
    auto eng = h.engine();
    ds::RbTree tree(eng);
    Xorshift rng(5);
    std::map<std::string, std::string> model;
    for (int i = 0; i < 600; i++) {
        uint64_t idx = rng.nextUint(200);
        std::string k = keyOf(idx);
        if (rng.nextBool(0.65)) {
            tree.insert(k, valOf(idx));
            model[k] = valOf(idx);
        } else {
            EXPECT_EQ(tree.remove(k), model.erase(k) > 0);
        }
        ASSERT_GE(tree.validate(), 0) << "after op " << i;
        ASSERT_EQ(tree.size(), model.size());
    }
}

TEST(BpTreeInvariants, HoldAcrossSplits)
{
    Harness h(RuntimeKind::clobber);
    auto eng = h.engine();
    ds::BpTree tree(eng, 0, smallCfg());
    for (uint64_t i = 0; i < 800; i++) {
        // 32-byte keys as in the paper's B+Tree benchmark.
        std::string k = keyOf(i) + std::string(24, 'k');
        tree.insert(k, valOf(i));
        if (i % 64 == 0)
            ASSERT_EQ(tree.validate(), static_cast<long>(i + 1));
    }
    EXPECT_EQ(tree.validate(), 800);
    EXPECT_EQ(tree.size(), 800u);
}

TEST(BpTreeInvariants, TornNodeFailsInsteadOfCrashing)
{
    // A torn node, which only a broken persistence order leaves
    // behind, must fail the descent through CNVM_CHECK instead of
    // following a null child or reading past keys[]. Each op runs on
    // its own pool, since the panic leaves its transaction open, and
    // the message shows which check fired.
    auto panicAfter = [](int keys, auto tear, auto op) -> std::string {
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        auto eng = h.engine();
        ds::BpTree tree(eng, 0, smallCfg());
        for (int i = 0; i < keys; i++)
            tree.insert("k" + std::to_string(100 + i), "v");
        auto* root = static_cast<ds::PBpTree*>(h.pool->at(tree.rootOff()));
        tear(h, root->root.get());
        try {
            op(tree);
        } catch (const PanicError& e) {
            return e.what();
        }
        return "";
    };
    auto nullKid = [](Harness& h, ds::BpNode* root) {
        ASSERT_EQ(root->isLeaf, 0u);
        nvm::PPtr<ds::BpNode> null;
        h.pool->write(&root->kids[0], &null, sizeof(null));
    };
    auto overfull = [](Harness& h, ds::BpNode* root) {
        uint32_t n = ds::kBpMaxKeys + 1;
        h.pool->write(&root->nKeys, &n, sizeof(n));
    };
    ds::LookupResult r;
    auto lookup = [&r](ds::BpTree& t) { t.lookup("a", &r); };
    auto insert = [](ds::BpTree& t) { t.insert("a", "1"); };

    std::string why = panicAfter(20, nullKid, lookup);
    EXPECT_NE(why.find("null child"), std::string::npos) << why;
    why = panicAfter(2, overfull, lookup);
    EXPECT_NE(why.find("more keys than fit"), std::string::npos) << why;
    why = panicAfter(2, overfull, insert);
    EXPECT_NE(why.find("more keys than fit"), std::string::npos) << why;
}

const txn::FuncId kAvlChurn = txn::registerTxFunc(
    "test_avl_churn", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<ds::PAvlTree>(a.get<uint64_t>());
        auto op = a.get<uint64_t>();
        auto key = a.get<uint64_t>();
        ds::AvlMap map(root);
        if (op == 0)
            map.put(tx, key, key * 3);
        else
            map.erase(tx, key);
    });
const txn::FuncId kAvlMake = txn::registerTxFunc(
    "test_avl_make", [](txn::Tx& tx, txn::ArgReader& a) {
        auto* out = reinterpret_cast<uint64_t*>(a.get<uint64_t>());
        *out = ds::AvlMap::create(tx).raw();
    });
const txn::FuncId kAvlCheck = txn::registerTxFunc(
    "test_avl_check", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<ds::PAvlTree>(a.get<uint64_t>());
        auto key = a.get<uint64_t>();
        auto* out = reinterpret_cast<uint64_t*>(a.get<uint64_t>());
        ds::AvlMap map(root);
        uint64_t v = 0;
        *out = map.get(tx, key, &v) ? v : ~0ULL;
    });

TEST(AvlInvariants, BalancedUnderChurn)
{
    Harness h(RuntimeKind::clobber);
    auto eng = h.engine();
    uint64_t rootOff = 0;
    txn::run(eng, kAvlMake, reinterpret_cast<uint64_t>(&rootOff));
    ds::AvlMap map{nvm::PPtr<ds::PAvlTree>(rootOff)};

    Xorshift rng(17);
    std::map<uint64_t, uint64_t> model;
    for (int i = 0; i < 800; i++) {
        uint64_t key = rng.nextUint(300) + 1;
        if (rng.nextBool(0.6)) {
            txn::run(eng, kAvlChurn, rootOff, uint64_t(0), key);
            model[key] = key * 3;
        } else {
            txn::run(eng, kAvlChurn, rootOff, uint64_t(1), key);
            model.erase(key);
        }
        ASSERT_GE(map.validate(), 0) << "after op " << i;
    }
    // Verify contents.
    for (const auto& [k, v] : model) {
        uint64_t got = 0;
        txn::run(eng, kAvlCheck, rootOff, k,
                 reinterpret_cast<uint64_t>(&got));
        ASSERT_EQ(got, v);
    }
}

TEST(ListWalks, CycleFailsInsteadOfSpinning)
{
    // A link cycle, which only a broken persistence order leaves
    // behind, must fail the walk through CNVM_CHECK (so the torture
    // oracle reports the case) instead of spinning forever. The list,
    // a one-bucket hash map and a one-bucket KV store each hold two
    // keys, head -> b -> a, and then a -> b; each tree gets a child
    // link back to its root. Each gets its own pool: the panic leaves
    // its transaction open.
    auto closeCycle = [](Harness& h, auto& head) {
        auto* tail = head->next.get();
        h.pool->write(&tail->next, &head, sizeof(head));
    };
    ds::LookupResult r;
    {
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        auto eng = h.engine();
        ds::List list(eng);
        list.insert("a", "1");
        list.insert("b", "2");
        auto* root = static_cast<ds::PList*>(h.pool->at(list.rootOff()));
        closeCycle(h, root->head);
        EXPECT_THROW(list.lookup("zz", &r), PanicError);
    }
    {
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        auto eng = h.engine();
        ds::KvConfig oneBucket;
        oneBucket.hashShards = 1;
        oneBucket.hashBucketsPerShard = 1;
        ds::HashMap map(eng, 0, oneBucket);
        map.insert("a", "1");
        map.insert("b", "2");
        auto* root = static_cast<ds::PHashMap*>(h.pool->at(map.rootOff()));
        closeCycle(h, root->buckets()[0]);
        EXPECT_THROW(map.lookup("zz", &r), PanicError);
    }
    {
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        auto eng = h.engine();
        apps::KvServer kv(eng, 0, apps::KvServer::Config{1, 1});
        kv.set("a", "1");
        kv.set("b", "2");
        auto* root = static_cast<apps::PKvStore*>(h.pool->at(kv.rootOff()));
        closeCycle(h, root->buckets()[0]);
        EXPECT_THROW(kv.get("zz", &r), PanicError);
    }
    {
        // Root b, its left child a, and a's left back to b.
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        auto eng = h.engine();
        ds::RbTree tree(eng);
        tree.insert("b", "2");
        tree.insert("a", "1");
        auto& root = static_cast<ds::PRbTree*>(h.pool->at(tree.rootOff()))
                         ->root;
        h.pool->write(&root->left->left, &root, sizeof(root));
        EXPECT_THROW(tree.lookup("0", &r), PanicError);
    }
    {
        // An internal root whose first child is the root itself.
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        auto eng = h.engine();
        ds::BpTree tree(eng, 0, smallCfg());
        for (int i = 0; i < 20; i++)
            tree.insert("k" + std::to_string(100 + i), "v");
        auto& root = static_cast<ds::PBpTree*>(h.pool->at(tree.rootOff()))
                         ->root;
        ASSERT_EQ(root->isLeaf, 0u);
        h.pool->write(&root->kids[0], &root, sizeof(root));
        EXPECT_THROW(tree.lookup("a", &r), PanicError);
    }
    // An AVL map with root 5, its left child 3, and 3's left back to 5.
    auto avlCycle = [](Harness& h) {
        auto eng = h.engine();
        uint64_t rootOff = 0;
        txn::run(eng, kAvlMake, reinterpret_cast<uint64_t>(&rootOff));
        txn::run(eng, kAvlChurn, rootOff, uint64_t(0), uint64_t(5));
        txn::run(eng, kAvlChurn, rootOff, uint64_t(0), uint64_t(3));
        auto& root = static_cast<ds::PAvlTree*>(h.pool->at(rootOff))->root;
        h.pool->write(&root->left->left, &root, sizeof(root));
        return rootOff;
    };
    {
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        uint64_t rootOff = avlCycle(h);
        auto eng = h.engine();
        uint64_t got = 0;
        EXPECT_THROW(txn::run(eng, kAvlCheck, rootOff, uint64_t(1),
                              reinterpret_cast<uint64_t>(&got)),
                     PanicError);
    }
    // The recursive walks stop at a depth cap: validate() reports the
    // cycle, and put() fails through CNVM_CHECK.
    {
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        ds::AvlMap map{nvm::PPtr<ds::PAvlTree>(avlCycle(h))};
        EXPECT_EQ(map.validate(), -1);
    }
    {
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        uint64_t rootOff = avlCycle(h);
        auto eng = h.engine();
        EXPECT_THROW(txn::run(eng, kAvlChurn, rootOff, uint64_t(0),
                              uint64_t(1)),
                     PanicError);
    }
    {
        // Root 5 with children 3 and 8, 8's left child 7, and 7's left
        // back to 8: erasing 5 walks 8's left spine for its successor.
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        auto eng = h.engine();
        uint64_t rootOff = 0;
        txn::run(eng, kAvlMake, reinterpret_cast<uint64_t>(&rootOff));
        for (uint64_t k : {5, 3, 8, 7})
            txn::run(eng, kAvlChurn, rootOff, uint64_t(0), k);
        auto& root = static_cast<ds::PAvlTree*>(h.pool->at(rootOff))->root;
        ASSERT_EQ(root->key, 5u);
        auto& eight = root->right;
        h.pool->write(&eight->left->left, &eight, sizeof(eight));
        EXPECT_THROW(txn::run(eng, kAvlChurn, rootOff, uint64_t(1),
                              uint64_t(5)),
                     PanicError);
    }
    {
        // The B+Tree root whose first child is itself, audited the way
        // the torture oracle does.
        Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined,
                  4ULL << 20);
        auto eng = h.engine();
        ds::BpTree tree(eng, 0, smallCfg());
        for (int i = 0; i < 20; i++)
            tree.insert("k" + std::to_string(100 + i), "v");
        auto& root = static_cast<ds::PBpTree*>(h.pool->at(tree.rootOff()))
                         ->root;
        ASSERT_EQ(root->isLeaf, 0u);
        h.pool->write(&root->kids[0], &root, sizeof(root));
        EXPECT_FALSE(tree.selfCheck());
    }
}

// A link or a value-buffer pointer that a crash tore must fail through
// CNVM_CHECK before it is dereferenced, so the torture oracle reports
// the case with its replay line instead of the process dying.
TEST(TornPointers, ChainLinkIntoANodeFails)
{
    // head -> b -> a, with b's next pointing 8 bytes into a.
    Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined, 4ULL << 20);
    auto eng = h.engine();
    ds::KvConfig oneBucket;
    oneBucket.hashShards = 1;
    oneBucket.hashBucketsPerShard = 1;
    ds::HashMap map(eng, 0, oneBucket);
    map.insert("a", "1");
    map.insert("b", "2");
    auto* root = static_cast<ds::PHashMap*>(h.pool->at(map.rootOff()));
    auto& head = root->buckets()[0];
    auto torn = nvm::PPtr<ds::ChainNode>(head->next.raw() + 8);
    h.pool->write(&head->next, &torn, sizeof(torn));
    ds::LookupResult r;
    EXPECT_THROW(map.lookup("zz", &r), PanicError);
}

TEST(TornPointers, SkiplistLinkOutsideTheHeapFails)
{
    // The head's top-level link, which every search follows first,
    // names an offset far past the pool's end.
    Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined, 4ULL << 20);
    auto eng = h.engine();
    ds::Skiplist list(eng);
    list.insert("a", "1");
    auto* root = static_cast<ds::PSkiplist*>(h.pool->at(list.rootOff()));
    auto torn = nvm::PPtr<ds::SkNode>(uint64_t{1} << 40);
    h.pool->write(&root->head.next[ds::kSkipMaxLevel - 1], &torn,
                  sizeof(torn));
    ds::LookupResult r;
    EXPECT_THROW(list.lookup("a", &r), PanicError);
}

TEST(TornPointers, NullRbTreeValueFails)
{
    Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined, 4ULL << 20);
    auto eng = h.engine();
    ds::RbTree tree(eng);
    tree.insert("a", "1234");
    auto& root = static_cast<ds::PRbTree*>(h.pool->at(tree.rootOff()))->root;
    nvm::PPtr<uint8_t> null;
    h.pool->write(&root->val, &null, sizeof(null));
    ASSERT_EQ(root->valLen, 4u);
    ds::LookupResult r;
    EXPECT_THROW(tree.lookup("a", &r), PanicError);
}

TEST(TornPointers, NullBpTreeValueFails)
{
    Harness h(RuntimeKind::noLog, rt::ClobberPolicy::refined, 4ULL << 20);
    auto eng = h.engine();
    ds::BpTree tree(eng, 0, smallCfg());
    tree.insert("a", "1234");
    auto& leaf = static_cast<ds::PBpTree*>(h.pool->at(tree.rootOff()))->root;
    ASSERT_EQ(leaf->isLeaf, 1u);
    nvm::PPtr<uint8_t> null;
    h.pool->write(&leaf->vals[0], &null, sizeof(null));
    ASSERT_EQ(leaf->valLens[0], 4u);
    ds::LookupResult r;
    EXPECT_THROW(tree.lookup("a", &r), PanicError);
}

TEST(RealThreads, HashMapParallelInserts)
{
    Harness h(RuntimeKind::clobber);
    auto eng = h.engine();
    auto kv = ds::makeKv("hashmap", eng, 0, smallCfg());

    constexpr unsigned kThreads = 4;
    constexpr uint64_t kPerThread = 300;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            txn::setThreadTid(t);
            for (uint64_t i = 0; i < kPerThread; i++) {
                uint64_t id = t * kPerThread + i;
                kv->insert(keyOf(id), valOf(id));
            }
        });
    }
    for (auto& th : threads)
        th.join();

    for (uint64_t id = 0; id < kThreads * kPerThread; id++) {
        ds::LookupResult r;
        ASSERT_TRUE(kv->lookup(keyOf(id), &r)) << id;
        ASSERT_EQ(r.str(), valOf(id));
    }
}

TEST(RealThreads, BpTreeParallelInserts)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    ds::BpTree tree(eng, 0, smallCfg());

    constexpr unsigned kThreads = 4;
    constexpr uint64_t kPerThread = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            txn::setThreadTid(t);
            for (uint64_t i = 0; i < kPerThread; i++) {
                uint64_t id = t * kPerThread + i;
                tree.insert(keyOf(id), valOf(id));
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(tree.validate(),
              static_cast<long>(kThreads * kPerThread));
}

}  // namespace
}  // namespace cnvm::test
