#include "testutil.h"

#include <gtest/gtest.h>

namespace cnvm::test {

namespace {

void
incrCounterFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
    uint64_t c = tx.ld(root->counter);
    tx.st(root->counter, c + 1);
}

void
pushNodeFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
    auto value = a.get<uint64_t>();
    auto node = tx.pnew<TestNode>();
    tx.st(node->value, value);
    tx.st(node->next, tx.ld(root->head));  // reads head
    tx.st(root->head, node);               // clobbers head
    tx.st(root->sum, tx.ld(root->sum) + value);
}

void
popNodeFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
    auto head = tx.ld(root->head);
    if (head.isNull())
        return;
    uint64_t value = tx.ld(head->value);
    tx.st(root->head, tx.ld(head->next));
    tx.st(root->sum, tx.ld(root->sum) - value);
    tx.pfree(head);
}

void
blindWriteFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
    auto value = a.get<uint64_t>();
    tx.st(root->sum, value);  // no prior read: output-only store
}

void
readOnlyFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
    volatile uint64_t sink = tx.ld(root->counter) + tx.ld(root->sum);
    (void)sink;
}

}  // namespace

const txn::FuncId kIncrCounter =
    txn::registerTxFunc("test_incr", incrCounterFn);
const txn::FuncId kPushNode =
    txn::registerTxFunc("test_push", pushNodeFn);
const txn::FuncId kPopNode =
    txn::registerTxFunc("test_pop", popNodeFn);
const txn::FuncId kBlindWrite =
    txn::registerTxFunc("test_blind", blindWriteFn);
const txn::FuncId kReadOnly =
    txn::registerTxFunc("test_readonly", readOnlyFn);

void
expectFreeMapMatchesBitmap(const nvm::Pool& pool,
                           const alloc::PmAllocator& heap)
{
    const uint8_t* bm = pool.base() + heap.bitmapOff();
    uint64_t granules = heap.dataBytes() / alloc::kGranule;
    uint64_t bytes = 0;
    uint64_t runs = 0;
    bool inRun = false;
    for (uint64_t g = 0; g < granules; g++) {
        bool allocated = ((bm[g / 8] >> (g % 8)) & 1) != 0;
        if (!allocated) {
            bytes += alloc::kGranule;
            runs += inRun ? 0 : 1;
        }
        inRun = !allocated;
    }
    EXPECT_EQ(heap.freeBytes(), bytes);
    EXPECT_EQ(heap.freeExtents(), runs);
}

void
Harness::makeRoot()
{
    // Bootstrap the root object with a one-off transaction.
    txn::Engine eng(*runtime);
    static const txn::FuncId kMakeRoot = txn::registerTxFunc(
        "test_make_root", [](txn::Tx& tx, txn::ArgReader&) {
            auto r = tx.pnew<TestRoot>();
            tx.pool().setRoot(r.raw());
        });
    txn::run(eng, kMakeRoot);
}

}  // namespace cnvm::test
