/**
 * @file
 * Tests of the transaction plumbing: argument serialization, the
 * txfunc registry, engine thread-slot routing, and cross-process
 * recovery on a file-backed pool (fork-based).
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rand.h"

#include "sim/context.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

TEST(Args, RoundTripScalarsAndSpans)
{
    txn::ArgWriter w;
    w.put<uint64_t>(42);
    w.put<int32_t>(-7);
    w.putBytes("hello", 5);
    w.put<double>(2.5);
    w.putBytes("", 0);

    txn::ArgReader r(w.bytes());
    EXPECT_EQ(r.get<uint64_t>(), 42u);
    EXPECT_EQ(r.get<int32_t>(), -7);
    EXPECT_EQ(r.getString(), "hello");
    EXPECT_EQ(r.get<double>(), 2.5);
    EXPECT_EQ(r.getString(), "");
}

TEST(Args, RoundTripsPastTheInlineBuffer)
{
    // A blob of exactly kInlineBytes stays inline; the next byte moves
    // the whole blob to the heap, and a reader sees no seam.
    std::string big(txn::ArgWriter::kInlineBytes - 8 - 4, 'b');
    txn::ArgWriter w;
    w.put<uint64_t>(7);
    w.putBytes(big.data(), big.size());
    ASSERT_EQ(w.bytes().size(), txn::ArgWriter::kInlineBytes);
    const uint8_t* inlineData = w.bytes().data();
    w.putBytes(std::string_view().data(), 0);  // empty view, null data
    w.put<uint32_t>(9);
    EXPECT_NE(w.bytes().data(), inlineData);

    txn::ArgReader r(w.bytes());
    EXPECT_EQ(r.get<uint64_t>(), 7u);
    EXPECT_EQ(r.getString(), big);
    EXPECT_EQ(r.getString(), "");
    EXPECT_EQ(r.get<uint32_t>(), 9u);
    EXPECT_THROW(r.get<uint8_t>(), PanicError);
}

TEST(Args, UnderflowIsCaught)
{
    txn::ArgWriter w;
    w.put<uint32_t>(1);
    txn::ArgReader r(w.bytes());
    EXPECT_EQ(r.get<uint32_t>(), 1u);
    EXPECT_THROW(r.get<uint64_t>(), PanicError);
}

TEST(Args, TruncatedSpanIsCaught)
{
    // A length prefix larger than the remaining payload must not
    // read out of bounds.
    txn::ArgWriter w;
    w.put<uint32_t>(1000);  // looks like a huge span length
    txn::ArgReader r(w.bytes());
    EXPECT_THROW(r.getBytes(), PanicError);
}

TEST(Registry, StableIdsAcrossLookups)
{
    auto fn = [](txn::Tx&, txn::ArgReader&) {};
    txn::FuncId a = txn::registerTxFunc("registry_test_fn", fn);
    txn::FuncId b = txn::registerTxFunc("registry_test_fn", fn);
    EXPECT_EQ(a, b);
    EXPECT_NE(txn::lookupTxFunc(a), nullptr);
    EXPECT_STREQ(txn::txFuncName(a), "registry_test_fn");
}

TEST(Registry, UnknownIdIsFatal)
{
    EXPECT_THROW(txn::lookupTxFunc(0xdeadbeef), FatalError);
}

void
registryNoop(txn::Tx&, txn::ArgReader&)
{
}

void
registryOther(txn::Tx&, txn::ArgReader&)
{
}

TEST(Registry, ReRegistrationWithAnotherBodyIsFatal)
{
    txn::FuncId a = txn::registerTxFunc("registry_rereg_fn", registryNoop);
    EXPECT_EQ(txn::registerTxFunc("registry_rereg_fn", registryNoop), a);
    EXPECT_THROW(txn::registerTxFunc("registry_rereg_fn", registryOther),
                 PanicError);
    EXPECT_EQ(txn::lookupTxFunc(a), &registryNoop);
}

/**
 * Readers on three threads resolve ids while a fourth registers new
 * ones. An id is either unknown ("?") or fully registered, name and
 * body together.
 */
TEST(RegistryConcurrency, LookupsWhileAnotherThreadRegisters)
{
    constexpr int kNew = 200;
    std::vector<std::string> names;
    std::vector<txn::FuncId> ids;
    for (int i = 0; i < kNew; i++) {
        names.push_back("registry_conc_" + std::to_string(i));
        ids.push_back(static_cast<txn::FuncId>(
            fnv1a(names.back().data(), names.back().size())));
    }
    txn::FuncId known =
        txn::registerTxFunc("registry_conc_known", registryNoop);
    std::atomic<bool> done{false};
    std::atomic<int> seen{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; t++) {
        readers.emplace_back([&] {
            // The pass after `done` sees every name registered.
            bool last = false;
            while (!last) {
                last = done.load(std::memory_order_acquire);
                ASSERT_EQ(txn::lookupTxFunc(known), &registryNoop);
                for (int i = 0; i < kNew; i++) {
                    std::string got = txn::txFuncName(ids[i]);
                    if (got == "?")
                        continue;
                    ASSERT_EQ(got, names[i]);
                    ASSERT_EQ(txn::lookupTxFunc(ids[i]), &registryNoop);
                    seen.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (int i = 0; i < kNew; i++)
        ASSERT_EQ(txn::registerTxFunc(names[i], registryNoop), ids[i]);
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers)
        t.join();
    for (int i = 0; i < kNew; i++)
        EXPECT_STREQ(txn::txFuncName(ids[i]), names[i].c_str());
    EXPECT_GT(seen.load(), 0);
}

TEST(Engine, ThreadTidRouting)
{
    txn::setThreadTid(5);
    EXPECT_EQ(txn::currentTid(), 5u);
    {
        // A logical context overrides the thread-local id.
        sim::ThreadCtx ctx(2);
        sim::Scope scope(&ctx);
        EXPECT_EQ(txn::currentTid(), 2u);
    }
    EXPECT_EQ(txn::currentTid(), 5u);
    txn::setThreadTid(0);
}

TEST(Engine, ThreadTidValidatedAgainstPoolSlots)
{
    Harness h(txn::RuntimeKind::clobber);  // maxThreads = 8
    auto eng = h.engine();

    txn::setThreadTid(7);  // last valid slot
    EXPECT_EQ(txn::currentTid(), 7u);

    // Out-of-range slots would scribble over a neighbor's log area:
    // both binding paths must refuse with a typed, catchable error.
    try {
        txn::setThreadTid(8);
        FAIL() << "setThreadTid(8) accepted on an 8-slot pool";
    } catch (const txn::SlotRangeError& e) {
        EXPECT_EQ(e.tid(), 8u);
        EXPECT_EQ(e.slots(), 8u);
    }
    EXPECT_EQ(txn::currentTid(), 7u);  // rejected bind left tid alone

    EXPECT_THROW(eng.bindThisThread(64), txn::SlotRangeError);
    eng.bindThisThread(3);
    EXPECT_EQ(txn::currentTid(), 3u);
    txn::setThreadTid(0);
}

/**
 * True cross-process recovery: the child opens the shared pool file,
 * pushes nodes, crashes mid-transaction (tearing the cache image),
 * and dies. The parent then opens the same file, recovers, and
 * verifies the interrupted push completed exactly once.
 */
TEST(CrossProcess, ForkCrashRecover)
{
    std::string path = "/tmp/cnvm_fork_test.pool";
    ::unlink(path.c_str());

    // Parent creates the pool layout first.
    uint64_t rootOff;
    {
        nvm::PoolConfig cfg;
        cfg.path = path;
        cfg.size = 16 << 20;
        cfg.maxThreads = 4;
        cfg.slotBytes = 128 << 10;
        auto pool = nvm::Pool::create(cfg);
        nvm::Pool* prev = nvm::Pool::current();
        nvm::Pool::setCurrent(pool.get());
        alloc::PmAllocator heap(*pool);
        rt::ClobberRuntime runtime(*pool, heap);
        txn::Engine eng(runtime);
        static const txn::FuncId kMk = txn::registerTxFunc(
            "fork_mk_root", [](txn::Tx& tx, txn::ArgReader&) {
                auto r = tx.pnew<TestRoot>();
                tx.pool().setRoot(r.raw());
            });
        txn::run(eng, kMk);
        rootOff = pool->root();
        nvm::Pool::setCurrent(prev);
    }

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: commit 3 pushes, crash inside the 4th, die.
        auto pool = nvm::Pool::open(path);
        nvm::Pool::setCurrent(pool.get());
        alloc::PmAllocator heap(*pool);
        rt::ClobberRuntime runtime(*pool, heap);
        runtime.recover();
        txn::Engine eng(runtime);
        for (uint64_t v = 1; v <= 3; v++)
            txn::run(eng, kPushNode, rootOff, v);
        pool->armWriteTrap(9);
        try {
            txn::run(eng, kPushNode, rootOff, uint64_t(100));
        } catch (const nvm::CrashInjected&) {
            pool->simulateCrash(4242);  // tear the unflushed lines
            ::_exit(0);                 // power gone
        }
        ::_exit(1);  // trap never fired: test setup broken
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // Parent: reopen, recover, verify the push completed.
    auto pool = nvm::Pool::open(path);
    nvm::Pool* prev = nvm::Pool::current();
    nvm::Pool::setCurrent(pool.get());
    alloc::PmAllocator heap(*pool);
    rt::ClobberRuntime runtime(*pool, heap);
    runtime.recover();

    auto root = nvm::PPtr<TestRoot>(rootOff);
    uint64_t sum = 0;
    size_t len = 0;
    for (auto n = root->head; !n.isNull(); n = n->next) {
        sum += n->value;
        len++;
    }
    EXPECT_EQ(len, 4u);
    EXPECT_EQ(sum, 106u);
    EXPECT_EQ(root->sum, 106u);
    nvm::Pool::setCurrent(prev);
    ::unlink(path.c_str());
}

TEST(Runtime, NestedTransactionsAreRejected)
{
    Harness h(txn::RuntimeKind::clobber);
    auto eng = h.engine();
    static const txn::FuncId kNest = txn::registerTxFunc(
        "test_nested", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            txn::Engine inner(tx.runtime());
            txn::run(inner, kIncrCounter, root.raw());
        });
    EXPECT_THROW(txn::run(eng, kNest, h.rootPtr().raw()), PanicError);
}

TEST(Runtime, OversizedArgBlobIsFatal)
{
    Harness h(txn::RuntimeKind::clobber);
    auto eng = h.engine();
    std::string huge(5000, 'x');
    EXPECT_THROW(
        txn::run(eng, kPushNode, h.rootPtr().raw(),
                 std::string_view(huge)),
        PanicError);
}

}  // namespace
}  // namespace cnvm::test
