/**
 * @file
 * Shared fixtures and registered txfuncs for the test suites.
 */
#ifndef CNVM_TESTS_TESTUTIL_H
#define CNVM_TESTS_TESTUTIL_H

#include <memory>

#include "alloc/pm_allocator.h"
#include "nvm/pool.h"
#include "nvm/pptr.h"
#include "runtimes/factory.h"
#include "txn/txrun.h"

namespace cnvm::test {

/** A tiny persistent root used by the runtime/crash tests. */
struct TestRoot {
    uint64_t counter;
    uint64_t sum;
    nvm::PPtr<struct TestNode> head;
    uint64_t pad[5];
};

struct TestNode {
    uint64_t value;
    nvm::PPtr<TestNode> next;
};

/** txfunc ids registered by testutil.cc. */
extern const txn::FuncId kIncrCounter;   ///< counter++ (read-modify-write)
extern const txn::FuncId kPushNode;      ///< prepend node; sum += value
extern const txn::FuncId kPopNode;       ///< remove head; sum -= value
extern const txn::FuncId kBlindWrite;    ///< overwrite sum without reading
extern const txn::FuncId kReadOnly;      ///< loads only

/**
 * The heap's free map must equal a walk over its raw bitmap, one bit
 * at a time: the same free bytes in the same number of runs. Holds
 * for a heap whose scan has run to the end and that has no live
 * reservation or hold.
 */
void expectFreeMapMatchesBitmap(const nvm::Pool& pool,
                                const alloc::PmAllocator& heap);

/** Pool + heap + runtime bundle over an anonymous mapping. */
class Harness {
 public:
    explicit Harness(txn::RuntimeKind kind,
                     rt::ClobberPolicy policy = rt::ClobberPolicy::refined,
                     size_t poolSize = 32ULL << 20)
    {
        nvm::PoolConfig cfg;
        cfg.size = poolSize;
        cfg.maxThreads = 8;
        cfg.slotBytes = 128ULL << 10;
        pool = nvm::Pool::create(cfg);
        nvm::Pool::setCurrent(pool.get());
        heap = std::make_unique<alloc::PmAllocator>(*pool);
        runtime = rt::makeRuntime(kind, *pool, *heap, policy);
        makeRoot();
    }

    ~Harness()
    {
        if (nvm::Pool::current() == pool.get())
            nvm::Pool::setCurrent(nullptr);
    }

    TestRoot&
    root()
    {
        return *static_cast<TestRoot*>(pool->at(pool->root()));
    }

    nvm::PPtr<TestRoot>
    rootPtr()
    {
        return nvm::PPtr<TestRoot>(pool->root());
    }

    txn::Engine
    engine()
    {
        return txn::Engine(*runtime);
    }

    /** Sum the list by direct traversal (outside any transaction). */
    uint64_t
    listSum()
    {
        uint64_t sum = 0;
        size_t guard = 0;
        for (auto n = root().head; !n.isNull(); n = n->next) {
            sum += n->value;
            CNVM_CHECK(++guard < 1000000, "list is cyclic");
        }
        return sum;
    }

    size_t
    listLen()
    {
        size_t len = 0;
        for (auto n = root().head; !n.isNull(); n = n->next)
            CNVM_CHECK(++len < 1000000, "list is cyclic");
        return len;
    }

    std::unique_ptr<nvm::Pool> pool;
    std::unique_ptr<alloc::PmAllocator> heap;
    std::unique_ptr<txn::Runtime> runtime;

 private:
    void makeRoot();
};

}  // namespace cnvm::test

#endif  // CNVM_TESTS_TESTUTIL_H
