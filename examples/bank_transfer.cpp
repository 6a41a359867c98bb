/**
 * @file
 * Example: failure-atomic bank transfers — the classic multi-write
 * invariant demo, hammered with random crash injection.
 *
 * A transfer debits one account and credits another; the sum of all
 * balances must never change, no matter where a power failure lands.
 * The demo runs hundreds of transfers with crashes injected at random
 * NVM writes, recovering after each, and checks the invariant every
 * time — under Clobber-NVM (roll-forward) and PMDK-style undo
 * (roll-back) side by side.
 *
 * Run:  ./bank_transfer
 */
#include <cstdio>

#include "alloc/pm_allocator.h"
#include "common/rand.h"
#include "nvm/pool.h"
#include "nvm/pptr.h"
#include "runtimes/factory.h"
#include "txn/txrun.h"

using namespace cnvm;

namespace {

constexpr uint64_t kAccounts = 64;
constexpr uint64_t kInitialBalance = 1000;

struct Bank {
    uint64_t balances[kAccounts];
};

void
transferFn(txn::Tx& tx, txn::ArgReader& args)
{
    auto bank = nvm::PPtr<Bank>(args.get<uint64_t>());
    auto from = args.get<uint64_t>();
    auto to = args.get<uint64_t>();
    auto amount = args.get<uint64_t>();
    if (from == to)
        return;

    uint64_t src = tx.ld(bank->balances[from]);
    if (src < amount)
        return;  // insufficient funds: deterministic no-op
    uint64_t dst = tx.ld(bank->balances[to]);
    tx.st(bank->balances[from], src - amount);  // clobber write
    tx.st(bank->balances[to], dst + amount);    // clobber write
}

const txn::FuncId kTransfer =
    txn::registerTxFunc("bank_transfer", transferFn);

uint64_t
totalBalance(nvm::PPtr<Bank> bank)
{
    uint64_t sum = 0;
    for (uint64_t i = 0; i < kAccounts; i++)
        sum += bank->balances[i];
    return sum;
}

int
demo(txn::RuntimeKind kind)
{
    nvm::PoolConfig cfg;
    cfg.size = 32 << 20;
    cfg.maxThreads = 8;
    auto pool = nvm::Pool::create(cfg);
    nvm::Pool::setCurrent(pool.get());
    alloc::PmAllocator heap(*pool);
    auto runtime = rt::makeRuntime(kind, *pool, heap);
    txn::Engine eng(*runtime);

    static const txn::FuncId kMakeBank = txn::registerTxFunc(
        "bank_make", [](txn::Tx& tx, txn::ArgReader&) {
            auto b = tx.pnew<Bank>();
            for (uint64_t i = 0; i < kAccounts; i++)
                tx.st(b->balances[i], kInitialBalance);
            tx.pool().setRoot(b.raw());
        });
    txn::run(eng, kMakeBank);
    auto bank = nvm::PPtr<Bank>(pool->root());

    const uint64_t expected = kAccounts * kInitialBalance;
    Xorshift rng(kind == txn::RuntimeKind::clobber ? 11 : 22);
    int crashes = 0;
    for (int i = 0; i < 500; i++) {
        uint64_t from = rng.nextUint(kAccounts);
        uint64_t to = rng.nextUint(kAccounts);
        uint64_t amount = rng.nextUint(200);
        if (rng.nextBool(0.4))
            pool->armWriteTrap(1 + rng.nextUint(12));
        try {
            txn::run(eng, kTransfer, bank.raw(), from, to, amount);
        } catch (const nvm::CrashInjected&) {
            crashes++;
            pool->simulateCrash(rng.next());
            runtime->recover();
        }
        pool->armWriteTrap(0);
        uint64_t total = totalBalance(bank);
        if (total != expected) {
            std::printf("  INVARIANT BROKEN at transfer %d: total %llu "
                        "!= %llu\n",
                        i, static_cast<unsigned long long>(total),
                        static_cast<unsigned long long>(expected));
            return 1;
        }
    }
    std::printf("  %-8s: 500 transfers, %d injected crashes, "
                "balance invariant held throughout\n",
                runtime->name(), crashes);
    nvm::Pool::setCurrent(nullptr);
    return 0;
}

}  // namespace

int
main()
{
    std::printf("bank transfer demo: sum of balances must survive any "
                "crash\n");
    int rc = 0;
    rc |= demo(txn::RuntimeKind::clobber);
    rc |= demo(txn::RuntimeKind::undo);
    rc |= demo(txn::RuntimeKind::redo);
    return rc;
}
