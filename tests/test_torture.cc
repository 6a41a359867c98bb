/**
 * @file
 * Gtest wrappers over the torture drivers (src/testing/torture.h):
 * small exhaustive sweeps and fuzz cases that run inside the regular
 * test suite, plus the properties the drivers themselves must have
 * (nolog fails, shrinking preserves failure, recovery is idempotent).
 * The heavyweight sweeps live in the cnvm_torture CLI and the
 * `torture`-labeled ctest entries.
 */
#include <gtest/gtest.h>

#include <thread>

#include "stats/counters.h"
#include "testing/crash_scheduler.h"
#include "testing/torture.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using torture::CrashScheduler;
using torture::exhaustiveSweep;
using torture::fuzz;
using torture::FuzzCase;
using torture::FuzzConfig;
using torture::runFuzzCase;
using torture::shrinkCase;
using torture::SweepConfig;
using torture::Tear;
using txn::RuntimeKind;

/**
 * What an op lets escape decides how its case ends. A transaction's
 * log overflow fails the case like a fatal error (a torture op is far
 * too small to overflow unless a damaged structure loops), so the
 * driver prints the case's reproduce line instead of the process
 * dying in std::terminate; a trap's CrashInjected still reaches the
 * driver's crash path.
 */
TEST(TortureEscape, LogOverflowFailsTheCaseInsteadOfAborting)
{
    EXPECT_EQ(torture::escapeOf([] {}), "");
    std::string overflow = torture::escapeOf(
        [] { throw txn::LogOverflowError(200000, 131072); });
    EXPECT_EQ(overflow.rfind("failed: transaction log overflow", 0), 0u)
        << overflow;
    EXPECT_EQ(torture::escapeOf([] { fatal("no space"); }),
              "failed: no space");
    EXPECT_EQ(torture::escapeOf([] { panic("bad link"); }),
              "panicked: bad link");
    EXPECT_THROW(torture::escapeOf([] { throw nvm::CrashInjected{}; }),
                 nvm::CrashInjected);
}

struct MatrixCase {
    RuntimeKind kind;
    const char* structure;
};

class TortureMatrix : public ::testing::TestWithParam<MatrixCase> {};

/** A budgeted exhaustive sweep must pass for every real protocol. */
TEST_P(TortureMatrix, BudgetedSweepPasses)
{
    auto [kind, structure] = GetParam();
    SweepConfig cfg;
    cfg.tear = Tear::randomTear;
    cfg.seed = 17;
    cfg.budget = 400;
    auto res = exhaustiveSweep(kind, structure, cfg);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GT(res.crashes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TortureMatrix,
    ::testing::Values(
        MatrixCase{RuntimeKind::clobber, "list"},
        MatrixCase{RuntimeKind::clobber, "hashmap"},
        MatrixCase{RuntimeKind::clobber, "rbtree"},
        MatrixCase{RuntimeKind::clobber, "bptree"},
        MatrixCase{RuntimeKind::undo, "hashmap"},
        MatrixCase{RuntimeKind::redo, "bptree"},
        MatrixCase{RuntimeKind::atlas, "list"},
        MatrixCase{RuntimeKind::ido, "rbtree"}),
    [](const auto& info) {
        return std::string(rt::kindName(info.param.kind)) + "_" +
               info.param.structure;
    });

/** nolog has no recovery story: the sweep must catch it failing. */
TEST(TortureSweep, NologFails)
{
    SweepConfig cfg;
    cfg.tear = Tear::allLost;
    cfg.seed = 3;
    cfg.budget = 600;
    auto res = exhaustiveSweep(RuntimeKind::noLog, "hashmap", cfg);
    EXPECT_FALSE(res.passed);
    EXPECT_FALSE(res.failure.empty());
}

/** A small randomized fuzz run over the trickiest structure. */
TEST(TortureFuzz, ClobberBptreeSmoke)
{
    FuzzConfig cfg;
    cfg.budget = 400;
    cfg.baseSeed = 7;
    auto out = fuzz(RuntimeKind::clobber, "bptree", cfg);
    EXPECT_TRUE(out.passed) << out.report(RuntimeKind::clobber,
                                          "bptree");
}

/**
 * Regression: torn crash inside a b+tree shift-insert. valLens[i] and
 * valLens[i+1] share one 8-byte clobber block; the shift's logged
 * pre-image must cover the whole block or the neighbour's surviving
 * torn write is never restored and re-execution shifts the corrupted
 * length into the committed key's slot (found by this exact case).
 */
TEST(TortureFuzz, ClobberBptreeTornShiftReplay)
{
    FuzzCase c;
    c.seed = 7;
    c.nOps = 48;
    c.crashAt = 2578;
    auto res = runFuzzCase(RuntimeKind::clobber, "bptree", c,
                           FuzzConfig{});
    EXPECT_TRUE(res.failure.empty()) << res.failure;
    EXPECT_TRUE(res.crashed);
}

/** Shrinking a failing nolog case must keep it failing, smaller. */
TEST(TortureFuzz, ShrinkPreservesFailure)
{
    FuzzConfig cfg;
    cfg.tear = Tear::allLost;
    cfg.budget = 800;
    cfg.baseSeed = 3;
    cfg.shrink = false;  // find the raw failing case first
    auto out = fuzz(RuntimeKind::noLog, "hashmap", cfg);
    ASSERT_FALSE(out.passed);

    FuzzCase small = shrinkCase(RuntimeKind::noLog, "hashmap",
                                out.failing, cfg, /* maxReplays */ 25);
    EXPECT_LE(small.nOps, out.failing.nOps);
    EXPECT_LE(small.crashAt, out.failing.crashAt);
    auto res = runFuzzCase(RuntimeKind::noLog, "hashmap", small, cfg);
    EXPECT_FALSE(res.failure.empty());
}

class MediaSweep : public ::testing::TestWithParam<RuntimeKind> {};

/**
 * Budgeted crash × media-fault sweep: bit flips, poisoned lines and
 * transient faults land on every tear, and the shadow-oracle audit is
 * relaxed only for cases whose RecoveryReport declared salvage.
 */
TEST_P(MediaSweep, BudgetedMediaSweepPasses)
{
    torture::MediaSweepConfig cfg;
    cfg.seed = 7;
    cfg.budget = 120;
    cfg.faults.bitFlips = 1;
    cfg.faults.poisons = 1;
    cfg.faults.transients = 1;
    auto res = torture::mediaFaultSweep(GetParam(), "list", cfg);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GT(res.crashes, 0u);
    EXPECT_GT(res.strictAudits + res.relaxedAudits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, MediaSweep,
                         ::testing::Values(RuntimeKind::clobber,
                                           RuntimeKind::undo,
                                           RuntimeKind::redo,
                                           RuntimeKind::atlas,
                                           RuntimeKind::ido),
                         [](const auto& info) {
                             return rt::kindName(info.param);
                         });

/**
 * The honesty check on the audit relaxation: nolog never declares
 * salvage (it has no recovery story at all), so every media case
 * audits strictly and the sweep must catch it failing.
 */
TEST(MediaSweep, NologFailsMediaSweep)
{
    torture::MediaSweepConfig cfg;
    cfg.seed = 3;
    cfg.budget = 200;
    auto res = torture::mediaFaultSweep(RuntimeKind::noLog, "list",
                                        cfg);
    EXPECT_FALSE(res.passed);
    EXPECT_FALSE(res.failure.empty());
}

/**
 * Faults during recovery: each tear's recovery is itself re-torn
 * (with another injection round) before the final pass. Recovery must
 * stay idempotent under damage, not just under torn writes.
 */
TEST(MediaSweep, RecoveryReTearsWithFaultsStaySound)
{
    for (RuntimeKind kind :
         {RuntimeKind::clobber, RuntimeKind::undo, RuntimeKind::redo}) {
        torture::MediaSweepConfig cfg;
        cfg.seed = 11;
        cfg.budget = 60;
        cfg.faults.duringRecoveryRounds = 2;
        auto res = torture::mediaFaultSweep(kind, "list", cfg);
        EXPECT_TRUE(res.passed)
            << static_cast<int>(kind) << ": " << res.failure;
    }
}

class RecoveryIdempotence
    : public ::testing::TestWithParam<RuntimeKind> {};

/**
 * Recovery must tolerate being interrupted and restarted any number
 * of times: crash a push, then crash recovery itself at every event
 * index until it runs quiet, recovering again after each re-crash.
 * The final state must satisfy the protocol's atomicity contract.
 */
TEST_P(RecoveryIdempotence, RecoverSurvivesRepeatedReArming)
{
    RuntimeKind kind = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 5; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    // Crash mid-push, past the begin record (an early crash leaves
    // clobber nothing to re-execute and the push legitimately absent).
    uint64_t eventsPerPush;
    {
        uint64_t before = sched.eventCount();
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(6));
        eventsPerPush = sched.eventCount() - before;
    }
    sched.arm(eventsPerPush / 2);
    bool crashed = false;
    try {
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(99));
    } catch (const nvm::CrashInjected&) {
        crashed = true;
    }
    sched.disarm();
    ASSERT_TRUE(crashed);
    h.pool->simulateCrash(41);

    // Re-arm DURING recover(): every recovery crash is followed by a
    // torn image and another recovery attempt.
    int recoveryCrashes = 0;
    auto preRec = stats::aggregate();
    for (uint64_t k = 1; k < 500; k++) {
        sched.arm(k);
        bool recCrashed = false;
        try {
            h.runtime->recover();
        } catch (const nvm::CrashInjected&) {
            recCrashed = true;
            recoveryCrashes++;
        }
        sched.disarm();
        if (!recCrashed)
            break;
        h.pool->simulateCrash(4242 + k);
    }
    auto rec = stats::aggregate() - preRec;

    // A final uninterrupted recover() must be a no-op on top of the
    // completed one: identical durable state before and after.
    size_t lenBefore = h.listLen();
    uint64_t sumBefore = h.root().sum;
    h.runtime->recover();
    EXPECT_EQ(h.listLen(), lenBefore);
    EXPECT_EQ(h.root().sum, sumBefore);

    if (kind == RuntimeKind::clobber &&
        rec[stats::Counter::reexecutions] > 0) {
        // Roll-forward happened: the push must be present exactly once.
        EXPECT_EQ(h.listLen(), 7u);
    } else {
        // Roll-back protocols, or a clobber crash in the begin window
        // (the begin record persists lazily at the first store).
        EXPECT_TRUE(h.listLen() == 6u || h.listLen() == 7u);
    }
    EXPECT_EQ(h.root().sum, h.listSum());
    EXPECT_GT(recoveryCrashes, 0);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RecoveryIdempotence,
                         ::testing::Values(RuntimeKind::clobber,
                                           RuntimeKind::undo,
                                           RuntimeKind::redo),
                         [](const auto& info) {
                             return rt::kindName(info.param);
                         });

// ---------------------------------------------------------------
// Instant restart (lazy recovery) under torture.
// ---------------------------------------------------------------

/** The budgeted crash sweep must also pass when every recovery goes
 *  through the lazy path (triage + first-touch heals + settle). */
TEST(LazyTorture, BudgetedLazySweepAllProtocols)
{
    for (RuntimeKind kind :
         {RuntimeKind::clobber, RuntimeKind::undo, RuntimeKind::redo,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        SweepConfig cfg;
        cfg.tear = Tear::randomTear;
        cfg.seed = 23;
        cfg.budget = 250;
        cfg.recovery = txn::RecoveryMode::lazy;
        auto res = exhaustiveSweep(kind, "hashmap", cfg);
        EXPECT_TRUE(res.passed)
            << static_cast<int>(kind) << ": " << res.failure;
        EXPECT_GT(res.crashes, 0u);
    }
}

/** Media faults + crashes during recovery, all through the lazy
 *  path: re-tears land inside triage and the heal drain. */
TEST(LazyTorture, LazyMediaSweepWithRecoveryReTears)
{
    for (RuntimeKind kind : {RuntimeKind::clobber, RuntimeKind::undo}) {
        torture::MediaSweepConfig cfg;
        cfg.seed = 19;
        cfg.budget = 50;
        cfg.faults.duringRecoveryRounds = 2;
        cfg.recovery = txn::RecoveryMode::lazy;
        auto res = torture::mediaFaultSweep(kind, "list", cfg);
        EXPECT_TRUE(res.passed)
            << static_cast<int>(kind) << ": " << res.failure;
    }
}

/**
 * Real-thread race on the once-latch: after a crash, the background
 * healer and a first-touch admission race to heal the SAME pending
 * slot. Exactly one of them may run the heal — a double heal of a
 * clobber slot would re-execute the transaction twice and the list
 * invariants below would catch it.
 */
TEST(LazyTorture, FirstTouchRacesBackgroundHealerOnSameSlot)
{
    for (int iter = 0; iter < 6; iter++) {
        Harness h(RuntimeKind::clobber);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        for (uint64_t v = 1; v <= 4; v++)
            txn::run(eng, kPushNode, h.rootPtr().raw(), v);
        bool crashed = false;
        // Vary the crash point per iteration so the heal the two
        // threads race over differs (restore-only vs re-execute).
        for (uint64_t k = 5 + 4 * static_cast<uint64_t>(iter);
             k < 1500 && !crashed; k++) {
            sched.arm(k);
            try {
                txn::run(eng, kPushNode, h.rootPtr().raw(),
                         uint64_t{50});
            } catch (const nvm::CrashInjected&) {
                crashed = true;
            }
            sched.disarm();
        }
        ASSERT_TRUE(crashed);
        h.pool->cache().crashAllLost();

        eng.recover(txn::RecoveryMode::lazy,
                    /* backgroundHealer */ true);
        std::thread toucher([&eng] { eng.admitSlot(0); });
        toucher.join();
        eng.finishRecovery();

        EXPECT_EQ(eng.recoveryPending(), 0u);
        EXPECT_TRUE(h.listLen() == 4 || h.listLen() == 5)
            << "iter " << iter << ": len " << h.listLen();
        EXPECT_EQ(h.root().sum, h.listSum()) << "iter " << iter;
        EXPECT_TRUE(h.runtime->recover().clean());
    }
}

/**
 * Stopping the healer mid-session must leave a resumable image: a
 * lazy session that is abandoned (no settle) followed by a fresh
 * lazy recovery — as after a second kill during recovery — heals to
 * the same state.
 */
TEST(LazyTorture, AbandonedSessionReTriagesIdempotently)
{
    Harness h(RuntimeKind::undo);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    bool crashed = false;
    for (uint64_t k = 5; k < 1500 && !crashed; k++) {
        sched.arm(k);
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{50});
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
    }
    ASSERT_TRUE(crashed);
    h.pool->cache().crashAllLost();

    // Triage-only session, abandoned without healing anything (no
    // healer, no admits): the next recover() must start over cleanly.
    eng.recover(txn::RecoveryMode::lazy, /* backgroundHealer */ false);
    uint64_t pendingFirst = eng.recoveryPending();

    eng.recover(txn::RecoveryMode::lazy, /* backgroundHealer */ false);
    EXPECT_EQ(eng.recoveryPending(), pendingFirst);
    for (unsigned t = 0; t < h.pool->maxThreads(); t++)
        eng.admitSlot(t);
    eng.finishRecovery();

    EXPECT_EQ(eng.recoveryPending(), 0u);
    EXPECT_TRUE(h.listLen() == 4 || h.listLen() == 5);
    EXPECT_EQ(h.root().sum, h.listSum());
    EXPECT_TRUE(h.runtime->recover().clean());
}

}  // namespace
}  // namespace cnvm::test
