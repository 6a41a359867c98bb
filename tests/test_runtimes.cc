/** @file Functional tests of every runtime's transaction semantics. */
#include <gtest/gtest.h>

#include <map>

#include "stats/counters.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using txn::RuntimeKind;

class RuntimeSemantics
    : public ::testing::TestWithParam<RuntimeKind> {};

/** Lines kStoreWide's scattered pass dirties in one transaction:
 *  enough that the dirty-line dedupe map grows several times. */
constexpr uint64_t kWideLines = 2048;
/** Extra line pairs, each touched only by one straddling store. */
constexpr uint64_t kStraddles = 16;
constexpr uint64_t kRegionLines = kWideLines + 2 * kStraddles;
constexpr uint64_t kLineWords = nvm::kCacheLine / sizeof(uint64_t);

/**
 * kStoreWide's stores over a line-aligned region of kRegionLines
 * lines: fn(firstWord, words, v0) stores v0, v0+1, ... to `words`
 * consecutive words. Every one of the first kWideLines lines
 * once in a scattered order, then every eighth of them again in
 * another order, then 16-byte stores that straddle two fresh lines.
 * About 2,300 8-byte log entries, so the undo and atlas logs fit a
 * 128 KiB slot.
 */
template <typename Fn>
void
forEachWideStore(Fn&& fn)
{
    for (uint64_t i = 0; i < kWideLines; i++) {
        uint64_t line = i * 769 % kWideLines;
        fn(line * kLineWords, 1, line + 1);
    }
    for (uint64_t i = kWideLines; i > 0; i -= 8)
        fn(i * 1237 % kWideLines * kLineWords + 3, 1, ~i);
    for (uint64_t line = kWideLines; line < kRegionLines; line += 2)
        fn(line * kLineWords + kLineWords - 1, 2, line << 32);
}

/** Allocates a scratch region of args[1] bytes; its payload offset
 *  lands in root->counter. */
const txn::FuncId kMakeRegion = txn::registerTxFunc(
    "test_make_region", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        uint64_t off = tx.pmallocOff(a.get<uint64_t>());
        tx.st(root->counter, off);
    });

const txn::FuncId kStoreWide = txn::registerTxFunc(
    "test_store_wide", [](txn::Tx& tx, txn::ArgReader& a) {
        auto* w = static_cast<uint64_t*>(tx.pool().at(a.get<uint64_t>()));
        forEachWideStore([&](uint64_t first, uint64_t words, uint64_t v0) {
            uint64_t v[2] = {v0, v0 + 1};
            tx.stBytes(w + first, v, words * sizeof(uint64_t));
        });
    });

TEST_P(RuntimeSemantics, CounterIncrements)
{
    Harness h(GetParam());
    auto eng = h.engine();
    for (int i = 0; i < 10; i++)
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 10u);
}

TEST_P(RuntimeSemantics, ListPushPopKeepsSumInvariant)
{
    Harness h(GetParam());
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 20; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    EXPECT_EQ(h.listLen(), 20u);
    EXPECT_EQ(h.root().sum, 210u);
    EXPECT_EQ(h.listSum(), 210u);
    for (int i = 0; i < 5; i++)
        txn::run(eng, kPopNode, h.rootPtr().raw());
    EXPECT_EQ(h.listLen(), 15u);
    EXPECT_EQ(h.root().sum, h.listSum());
}

TEST_P(RuntimeSemantics, FreedMemoryIsReusable)
{
    Harness h(GetParam());
    auto eng = h.engine();
    size_t before = h.heap->freeBytes();
    for (int round = 0; round < 50; round++) {
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(7));
        txn::run(eng, kPopNode, h.rootPtr().raw());
    }
    EXPECT_EQ(h.listLen(), 0u);
    EXPECT_EQ(h.heap->freeBytes(), before);
}

TEST_P(RuntimeSemantics, CommittedStateSurvivesTotalCacheLoss)
{
    if (GetParam() == RuntimeKind::noLog)
        GTEST_SKIP() << "no-log gives no durability guarantee";
    Harness h(GetParam());
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 8; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    // Power loss right after the last commit: all 8 pushes must hold.
    h.pool->cache().crashAllLost();
    h.runtime->recover();
    EXPECT_EQ(h.listLen(), 8u);
    EXPECT_EQ(h.root().sum, 36u);
    EXPECT_EQ(h.listSum(), 36u);
}

TEST_P(RuntimeSemantics, ReadOnlyTransactionsCostNoFences)
{
    Harness h(GetParam());
    if (GetParam() == RuntimeKind::atlas)
        GTEST_SKIP() << "Atlas logs every critical section";
    auto eng = h.engine();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(1));
    auto before = stats::aggregate();
    for (int i = 0; i < 10; i++)
        txn::run(eng, kReadOnly, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_EQ(delta[stats::Counter::fences], 0u);
    EXPECT_EQ(delta[stats::Counter::txCommits], 10u);
}

TEST_P(RuntimeSemantics, CommitWritesBackEveryDirtiedLine)
{
    Harness h(GetParam());
    auto eng = h.engine();
    txn::run(eng, kMakeRegion, h.rootPtr().raw(),
             uint64_t{(kRegionLines + 1) * nvm::kCacheLine});
    uint64_t off = (h.root().counter + nvm::kCacheLine - 1) /
                   nvm::kCacheLine * nvm::kCacheLine;
    txn::run(eng, kStoreWide, off);

    std::map<uint64_t, uint64_t> expect;  // word index -> value
    forEachWideStore([&](uint64_t first, uint64_t words, uint64_t v0) {
        for (uint64_t k = 0; k < words; k++)
            expect[first + k] = v0 + k;
    });
    auto holds = [&]() -> ::testing::AssertionResult {
        const auto* w = static_cast<const uint64_t*>(h.pool->at(off));
        for (auto [i, v] : expect) {
            if (w[i] != v)
                return ::testing::AssertionFailure() << "word " << i;
        }
        return ::testing::AssertionSuccess();
    };
    EXPECT_TRUE(holds());
    // No-log does no write-back at commit, so it gives no durability
    // guarantee to check.
    if (GetParam() == RuntimeKind::noLog)
        return;
    EXPECT_EQ(h.pool->cache().volatileLines(), 0u);
    h.pool->cache().crashAllLost();
    h.runtime->recover();
    EXPECT_TRUE(holds());
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, RuntimeSemantics,
    ::testing::Values(RuntimeKind::noLog, RuntimeKind::undo,
                      RuntimeKind::redo, RuntimeKind::clobber,
                      RuntimeKind::atlas, RuntimeKind::ido),
    [](const auto& info) { return rt::kindName(info.param); });

TEST(ClobberLogging, BlindWritesAreNotLogged)
{
    Harness h(txn::RuntimeKind::clobber);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kBlindWrite, h.rootPtr().raw(), uint64_t(99));
    auto delta = stats::aggregate() - before;
    // sum was never read: an output-only store needs no clobber log.
    EXPECT_EQ(delta[stats::Counter::clobberEntries], 0u);
    EXPECT_EQ(h.root().sum, 99u);
}

TEST(ClobberLogging, ReadModifyWriteIsLoggedOnce)
{
    Harness h(txn::RuntimeKind::clobber);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_EQ(delta[stats::Counter::clobberEntries], 1u);
    EXPECT_EQ(delta[stats::Counter::clobberBytes], 8u);
    EXPECT_EQ(delta[stats::Counter::vlogEntries], 1u);
}

TEST(ClobberLogging, FreshAllocationsAreNeverLogged)
{
    Harness h(txn::RuntimeKind::clobber);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(5));
    auto delta = stats::aggregate() - before;
    // push reads head + sum and overwrites both: exactly 2 clobber
    // entries; the node/value writes are to fresh memory.
    EXPECT_EQ(delta[stats::Counter::clobberEntries], 2u);
}

TEST(ClobberLogging, UndoLogsStrictlyMore)
{
    Harness hC(txn::RuntimeKind::clobber);
    {
        auto eng = hC.engine();
        stats::resetAll();
        for (uint64_t v = 0; v < 50; v++)
            txn::run(eng, kPushNode, hC.rootPtr().raw(), v);
    }
    auto clobber = stats::aggregate();

    Harness hU(txn::RuntimeKind::undo);
    {
        auto eng = hU.engine();
        stats::resetAll();
        for (uint64_t v = 0; v < 50; v++)
            txn::run(eng, kPushNode, hU.rootPtr().raw(), v);
    }
    auto undo = stats::aggregate();

    EXPECT_GT(undo[stats::Counter::undoEntries],
              clobber[stats::Counter::clobberEntries]);
    stats::resetAll();
}

TEST(ClobberPolicy, ConservativeLogsAtLeastAsMuch)
{
    Harness hR(txn::RuntimeKind::clobber, rt::ClobberPolicy::refined);
    stats::resetAll();
    {
        auto eng = hR.engine();
        for (uint64_t v = 0; v < 30; v++)
            txn::run(eng, kPushNode, hR.rootPtr().raw(), v);
    }
    auto refined = stats::aggregate();

    Harness hCo(txn::RuntimeKind::clobber,
                rt::ClobberPolicy::conservative);
    stats::resetAll();
    {
        auto eng = hCo.engine();
        for (uint64_t v = 0; v < 30; v++)
            txn::run(eng, kPushNode, hCo.rootPtr().raw(), v);
    }
    auto cons = stats::aggregate();
    EXPECT_GE(cons[stats::Counter::clobberEntries],
              refined[stats::Counter::clobberEntries]);
    stats::resetAll();
}

TEST(IdoLogging, LogsAtLeastAsManyBytesAsClobber)
{
    Harness hC(txn::RuntimeKind::clobber);
    stats::resetAll();
    {
        auto eng = hC.engine();
        for (uint64_t v = 0; v < 30; v++)
            txn::run(eng, kPushNode, hC.rootPtr().raw(), v);
    }
    auto clobber = stats::aggregate();

    Harness hI(txn::RuntimeKind::ido);
    stats::resetAll();
    {
        auto eng = hI.engine();
        for (uint64_t v = 0; v < 30; v++)
            txn::run(eng, kPushNode, hI.rootPtr().raw(), v);
    }
    auto ido = stats::aggregate();
    EXPECT_GE(ido[stats::Counter::idoBytes],
              clobber[stats::Counter::clobberBytes] +
                  clobber[stats::Counter::vlogBytes]);
    stats::resetAll();
}

TEST(AtlasLogging, LockAndDependencyRecords)
{
    Harness h(txn::RuntimeKind::atlas);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_GE(delta[stats::Counter::lockLogEntries], 2u);
    EXPECT_EQ(delta[stats::Counter::depRecords], 1u);
}

TEST(RedoRuntime, ReadsSeeOwnWritesInsideTx)
{
    Harness h(txn::RuntimeKind::redo);
    auto eng = h.engine();
    // incr twice inside independent txs; each read must see the
    // previous committed value even though stores are buffered.
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 2u);

    static const txn::FuncId kDoubleIncr = txn::registerTxFunc(
        "test_double_incr", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            // Two RMWs in one tx: the second must see the first.
            tx.st(root->counter, tx.ld(root->counter) + 1);
            tx.st(root->counter, tx.ld(root->counter) + 1);
        });
    txn::run(eng, kDoubleIncr, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 4u);
}

TEST(RedoRuntime, FewerFencesThanUndoForBigTx)
{
    static const txn::FuncId kManyStores = txn::registerTxFunc(
        "test_many_stores", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            for (uint64_t i = 0; i < 16; i++) {
                uint64_t v = tx.ld(root->pad[i % 5]);
                tx.st(root->pad[i % 5], v + i);
            }
        });

    Harness hU(txn::RuntimeKind::undo);
    stats::resetAll();
    {
        auto eng = hU.engine();
        txn::run(eng, kManyStores, hU.rootPtr().raw());
    }
    auto undo = stats::aggregate();

    Harness hR(txn::RuntimeKind::redo);
    stats::resetAll();
    {
        auto eng = hR.engine();
        txn::run(eng, kManyStores, hR.rootPtr().raw());
    }
    auto redo = stats::aggregate();
    EXPECT_LT(redo[stats::Counter::fences],
              undo[stats::Counter::fences]);
    stats::resetAll();
}

// Shared by the fence-accounting tests below, over a 1 KiB region
// from kMakeRegion: each stored word lands in its own 8-byte block.
const txn::FuncId kStoreWords = txn::registerTxFunc(
    "test_store_words", [](txn::Tx& tx, txn::ArgReader& a) {
        uint64_t regionOff = a.get<uint64_t>();
        uint64_t count = a.get<uint64_t>();
        auto* w = static_cast<uint64_t*>(tx.pool().at(regionOff));
        for (uint64_t i = 0; i < count; i++)
            tx.st(w[i], i + 1);
    });

TEST(ZeroLengthAccess, CostsNoFencesOrLogEntries)
{
    static const txn::FuncId kZeroLenOnly = txn::registerTxFunc(
        "test_zero_len_only", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            uint8_t buf = 0;
            tx.ldBytes(&buf, &root->sum, 0);
            tx.stBytes(&root->sum, &buf, 0);
        });
    for (auto kind : {RuntimeKind::noLog, RuntimeKind::undo,
                      RuntimeKind::redo, RuntimeKind::clobber,
                      RuntimeKind::ido}) {
        Harness h(kind);
        auto eng = h.engine();
        auto before = stats::aggregate();
        txn::run(eng, kZeroLenOnly, h.rootPtr().raw());
        auto delta = stats::aggregate() - before;
        // An empty access touches no block, so the transaction stays
        // on the read-only fast path (regression: forEachBlock used to
        // visit one block for n == 0).
        EXPECT_EQ(delta[stats::Counter::fences], 0u)
            << h.runtime->name();
        EXPECT_EQ(delta[stats::Counter::txCommits], 1u);
    }
}

TEST(ZeroLengthAccess, DoesNotPolluteClobberReadSet)
{
    static const txn::FuncId kZeroLdThenStore = txn::registerTxFunc(
        "test_zero_ld_then_store", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            uint8_t buf;
            tx.ldBytes(&buf, &root->sum, 0);  // empty read of sum
            tx.st(root->sum, uint64_t{77});   // still a blind write
        });
    Harness h(RuntimeKind::clobber);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kZeroLdThenStore, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_EQ(delta[stats::Counter::clobberEntries], 0u);
    EXPECT_EQ(h.root().sum, 77u);
}

TEST(RedoRuntime, CommitFencesAreConstantPerTx)
{
    Harness h(RuntimeKind::redo);
    auto eng = h.engine();
    txn::run(eng, kMakeRegion, h.rootPtr().raw(), uint64_t{1024});
    uint64_t regionOff = h.root().counter;
    auto fencesFor = [&](uint64_t count) {
        auto before = stats::aggregate();
        txn::run(eng, kStoreWords, regionOff, count);
        return (stats::aggregate() - before)[stats::Counter::fences];
    };
    // Redo entries are flushed without a fence; only the commit
    // sequence (log drain, commit record, write-back, release) pays
    // them, so the count is O(1) in the number of stores.
    uint64_t small = fencesFor(2);
    uint64_t large = fencesFor(64);
    EXPECT_EQ(small, large);
    EXPECT_LE(large, 4u);
}

TEST(AtlasLogging, MarkerRecordsAreFlushedWithoutFences)
{
    Harness h(RuntimeKind::atlas);
    auto eng = h.engine();
    txn::run(eng, kMakeRegion, h.rootPtr().raw(), uint64_t{1024});
    uint64_t regionOff = h.root().counter;
    auto fencesFor = [&](uint64_t count) {
        auto before = stats::aggregate();
        txn::run(eng, kStoreWords, regionOff, count);
        return (stats::aggregate() - before)[stats::Counter::fences];
    };
    // Undo images keep their per-entry fence (they must beat the
    // in-place write), but lock markers and dependency records are
    // flush-only, leaving one fence per store plus a constant per-tx
    // overhead (begin persist, commit write-back, release).
    uint64_t f8 = fencesFor(8);
    uint64_t f32 = fencesFor(32);
    EXPECT_EQ(f32 - f8, 24u);  // exactly one fence per extra store
    EXPECT_EQ(f8, 8u + 3u);
}

TEST(IdoLogging, LineRedirtiedAfterRegionBoundaryIsWrittenBack)
{
    // The load-then-store of w[16] closes an idempotent region, whose
    // boundary writes back w[0]'s line; storing w[0] again dirties
    // that line anew, and commit must write it back a second time.
    static const txn::FuncId kAcrossBoundary = txn::registerTxFunc(
        "test_store_across_boundary", [](txn::Tx& tx, txn::ArgReader& a) {
            uint64_t off = a.get<uint64_t>();
            auto* w = static_cast<uint64_t*>(tx.pool().at(off));
            tx.st(w[0], uint64_t{1});
            tx.st(w[16], tx.ld(w[16]) + 1);
            tx.st(w[0], uint64_t{2});
        });
    Harness h(RuntimeKind::ido);
    auto eng = h.engine();
    txn::run(eng, kMakeRegion, h.rootPtr().raw(), uint64_t{1024});
    uint64_t regionOff = h.root().counter;
    auto* w = static_cast<uint64_t*>(h.pool->at(regionOff));
    uint64_t w16 = w[16];
    auto before = stats::aggregate();
    txn::run(eng, kAcrossBoundary, regionOff);
    auto delta = stats::aggregate() - before;
    // The initial boundary record plus the one the tx crossed.
    EXPECT_EQ(delta[stats::Counter::idoEntries], 2u);
    EXPECT_EQ(h.pool->cache().volatileLines(), 0u);
    h.pool->cache().crashAllLost();
    h.runtime->recover();
    EXPECT_EQ(w[0], 2u);
    EXPECT_EQ(w[16], w16 + 1);
}

}  // namespace
}  // namespace cnvm::test
