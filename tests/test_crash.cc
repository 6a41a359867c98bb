/**
 * @file
 * Crash-injection property tests: for every runtime and every possible
 * crash point inside a transaction, the recovered state must satisfy
 * the structure invariants and the protocol's atomicity contract
 * (roll-back for undo/redo/atlas, roll-*forward* for Clobber-NVM).
 *
 * Crash points are persistency-event indices counted by the
 * CrashScheduler (store/clwb/sfence, DESIGN.md §11), not pool-write
 * ordinals: a protocol change that adds flushes or fences without
 * adding writes still creates crash windows the sweep can reach.
 */
#include <gtest/gtest.h>

#include "stats/counters.h"
#include "testing/crash_scheduler.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using torture::CrashScheduler;
using txn::RuntimeKind;

/** Crash mode applied once the trap fires. */
enum class CrashMode { allLost, randomTear };

struct CrashCase {
    RuntimeKind kind;
    CrashMode mode;
};

class CrashSweep : public ::testing::TestWithParam<CrashCase> {};

/**
 * Push nodes, crashing each push at successive persistency events.
 * After recovery the list/sum invariants must hold, and the
 * interrupted push must be either fully absent (roll-back) or fully
 * present exactly once (Clobber re-execution).
 */
TEST_P(CrashSweep, PushInterruptedAtEveryEvent)
{
    auto [kind, mode] = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();

    // Committed baseline.
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    uint64_t expectedSum = 10;
    size_t expectedLen = 4;

    bool sawCrash = false;
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1500; k++) {
        uint64_t value = 100 + k;
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), value);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sawCrash = true;
        }
        sched.disarm();
        if (crashed) {
            quietInARow = 0;
            if (mode == CrashMode::allLost)
                h.pool->cache().crashAllLost();
            else
                h.pool->simulateCrash(1234 + k);
            auto preRec = stats::aggregate();
            h.runtime->recover();
            auto rec = stats::aggregate() - preRec;
            size_t len = h.listLen();
            if (kind == RuntimeKind::clobber &&
                rec[stats::Counter::reexecutions] > 0) {
                // Recovery-via-resumption: the push completed.
                ASSERT_EQ(len, expectedLen + 1) << "crash point " << k;
            } else {
                // Roll-back protocols, or a clobber crash that either
                // preceded the v_log persist (never begun) or followed
                // the commit point (already durable).
                ASSERT_TRUE(len == expectedLen || len == expectedLen + 1)
                    << "crash point " << k;
            }
            if (len == expectedLen + 1) {
                expectedLen = len;
                expectedSum += value;
            }
        } else {
            quietInARow++;
            expectedLen++;
            expectedSum += value;
        }
        // Core invariants after every iteration.
        ASSERT_EQ(h.listLen(), expectedLen) << "crash point " << k;
        ASSERT_EQ(h.root().sum, expectedSum) << "crash point " << k;
        ASSERT_EQ(h.listSum(), expectedSum) << "crash point " << k;
    }
    EXPECT_TRUE(sawCrash);
}

/** Same sweep for pops (exercises the deferred-free protocol). */
TEST_P(CrashSweep, PopInterruptedAtEveryEvent)
{
    auto [kind, mode] = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();

    for (uint64_t v = 1; v <= 60; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    size_t expectedLen = 60;

    bool sawCrash = false;
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1000 && expectedLen > 2;
         k++) {
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPopNode, h.rootPtr().raw());
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sawCrash = true;
        }
        sched.disarm();
        if (crashed) {
            quietInARow = 0;
            if (mode == CrashMode::allLost)
                h.pool->cache().crashAllLost();
            else
                h.pool->simulateCrash(777 + k);
            auto preRec = stats::aggregate();
            h.runtime->recover();
            auto rec = stats::aggregate() - preRec;
            size_t len = h.listLen();
            if (kind == RuntimeKind::clobber &&
                rec[stats::Counter::reexecutions] > 0) {
                ASSERT_EQ(len, expectedLen - 1) << "crash point " << k;
            } else {
                ASSERT_TRUE(len == expectedLen || len == expectedLen - 1)
                    << "crash point " << k;
            }
            expectedLen = len;
        } else {
            quietInARow++;
            expectedLen--;
        }
        ASSERT_EQ(h.listLen(), expectedLen);
        ASSERT_EQ(h.root().sum, h.listSum()) << "crash point " << k;
    }
    EXPECT_TRUE(sawCrash);
}

/** Crash during recovery itself: recovery must be restartable. */
TEST_P(CrashSweep, CrashDuringRecoveryIsRepairable)
{
    auto [kind, mode] = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    // Interrupt a push mid-flight, past the begin record (a committed
    // push's event count tells us where the middle is; crashing in the
    // begin window would leave nothing for clobber to re-execute).
    uint64_t eventsPerPush;
    {
        uint64_t before = sched.eventCount();
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(5));
        eventsPerPush = sched.eventCount() - before;
    }
    sched.arm(eventsPerPush / 2);
    bool crashed = false;
    try {
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(50));
    } catch (const nvm::CrashInjected&) {
        crashed = true;
    }
    sched.disarm();
    ASSERT_TRUE(crashed);
    h.pool->cache().crashAllLost();

    // Now crash the recovery at successive points, then finish it.
    for (uint64_t k = 1; k < 400; k++) {
        sched.arm(k);
        bool recCrashed = false;
        try {
            h.runtime->recover();
        } catch (const nvm::CrashInjected&) {
            recCrashed = true;
        }
        sched.disarm();
        if (!recCrashed)
            break;
        if (mode == CrashMode::allLost)
            h.pool->cache().crashAllLost();
        else
            h.pool->simulateCrash(31 + k);
    }
    h.runtime->recover();
    size_t len = h.listLen();
    if (kind == RuntimeKind::clobber)
        EXPECT_EQ(len, 6u);
    else
        EXPECT_TRUE(len == 5u || len == 6u);
    EXPECT_EQ(h.root().sum, h.listSum());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CrashSweep,
    ::testing::Values(
        CrashCase{RuntimeKind::undo, CrashMode::allLost},
        CrashCase{RuntimeKind::undo, CrashMode::randomTear},
        CrashCase{RuntimeKind::redo, CrashMode::allLost},
        CrashCase{RuntimeKind::redo, CrashMode::randomTear},
        CrashCase{RuntimeKind::clobber, CrashMode::allLost},
        CrashCase{RuntimeKind::clobber, CrashMode::randomTear},
        CrashCase{RuntimeKind::atlas, CrashMode::allLost},
        CrashCase{RuntimeKind::atlas, CrashMode::randomTear}),
    [](const auto& info) {
        std::string name;
        switch (info.param.kind) {
          case RuntimeKind::undo: name = "pmdk"; break;
          case RuntimeKind::redo: name = "mnemosyne"; break;
          case RuntimeKind::clobber: name = "clobber"; break;
          case RuntimeKind::atlas: name = "atlas"; break;
          default: name = "other"; break;
        }
        name += info.param.mode == CrashMode::allLost ? "_alllost"
                                                      : "_tear";
        return name;
    });

// ---------------------------------------------------------------
// Two slots in flight at one crash: every heal runs slot by slot, so
// the second pending slot must not be disturbed by the first one's
// roll-back or re-execution, in full and lazy recovery alike.
// ---------------------------------------------------------------

struct TwoSlotCase {
    RuntimeKind kind;
    txn::RecoveryMode mode;
};

class TwoSlotCrash : public ::testing::TestWithParam<TwoSlotCase> {};

/** Bind the calling thread to a runtime slot for one scope. */
struct SlotBinding {
    explicit SlotBinding(unsigned tid) { txn::setThreadTid(tid); }
    ~SlotBinding() { txn::setThreadTid(0); }
    SlotBinding(const SlotBinding&) = delete;
    SlotBinding& operator=(const SlotBinding&) = delete;
};

/** A second, empty list root; its offset lands in the out-pointer. */
const txn::FuncId kMakeList = txn::registerTxFunc(
    "test_make_list", [](txn::Tx& tx, txn::ArgReader& a) {
        auto* out = a.get<uint64_t*>();
        auto r = tx.pnew<TestRoot>();
        if (!tx.recovering())
            *out = r.raw();
    });

/** A list as it sits on media: node count, sum of node values, the
 *  root's running sum, and the head node's value. */
struct ListState {
    size_t len = 0;
    uint64_t nodeSum = 0;
    uint64_t rootSum = 0;
    uint64_t headValue = 0;
};

ListState
readList(nvm::Pool& pool, uint64_t rootOff)
{
    const auto& root = *static_cast<const TestRoot*>(pool.at(rootOff));
    ListState st;
    st.rootSum = root.sum;
    if (!root.head.isNull())
        st.headValue = root.head->value;
    for (auto n = root.head; !n.isNull(); n = n->next) {
        st.nodeSum += n->value;
        CNVM_CHECK(++st.len < 1000000, "list is cyclic");
    }
    return st;
}

/**
 * Trap a push on slot 1 mid-transaction, then crash a push on slot 0
 * (the two push onto disjoint lists, as two transactions holding
 * their own locks would), at every trap point of the sweep. Wherever
 * triage reports both slots pending, recovery must leave each push
 * all-or-nothing with each list's sum matching its nodes, and
 * resumption runtimes must re-execute both pushes.
 */
TEST_P(TwoSlotCrash, BothPendingSlotsHealAllOrNothing)
{
    auto [kind, mode] = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    uint64_t roots[2] = {h.rootPtr().raw(), 0};
    txn::run(eng, kMakeList, &roots[1]);
    ASSERT_NE(roots[1], 0u);
    for (uint64_t v = 1; v <= 3; v++) {
        for (uint64_t r : roots)
            txn::run(eng, kPushNode, r, v);
    }

    // Push `value` onto list `slot` from runtime slot `slot`, with the
    // trap armed at event k. @return whether the push crashed.
    auto crashPush = [&](unsigned slot, uint64_t k, uint64_t value) {
        SlotBinding bind(slot);
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, roots[slot], value);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        return crashed;
    };

    bool resumes =
        kind == RuntimeKind::clobber || kind == RuntimeKind::ido;
    unsigned checked = 0;
    for (uint64_t k = 1; k < 400; k++) {
        SCOPED_TRACE(k);
        ListState before[2] = {readList(*h.pool, roots[0]),
                               readList(*h.pool, roots[1])};
        uint64_t pushed[2] = {2000 + k, 1000 + k};
        bool crashed1 = crashPush(1, k, pushed[1]);
        bool crashed0 = crashed1 && crashPush(0, k, pushed[0]);
        if (crashed1)
            h.pool->cache().crashAllLost();
        if (!crashed0) {
            // Swept past the pushes' events: nothing left to tear.
            h.runtime->recover();
            break;
        }
        if (h.runtime->recoveryTriage().entries.size() != 2) {
            h.runtime->recover();  // not both torn mid-flight
            continue;
        }
        checked++;

        txn::RecoveryReport rep;
        if (mode == txn::RecoveryMode::full) {
            rep = eng.recover(txn::RecoveryMode::full);
        } else {
            eng.recover(txn::RecoveryMode::lazy,
                        /* backgroundHealer */ false);
            EXPECT_EQ(eng.recoveryPending(), 3u);  // 2 slots + heap
            {
                SlotBinding bind(1);
                eng.admitSlot(1);  // first touch heals slot 1 first
            }
            rep = eng.finishRecovery();
        }
        EXPECT_TRUE(rep.clean()) << rep.toString();
        EXPECT_EQ(eng.recoveryPending(), 0u);

        for (unsigned s = 0; s < 2; s++) {
            SCOPED_TRACE(s);
            ListState after = readList(*h.pool, roots[s]);
            EXPECT_EQ(after.rootSum, after.nodeSum);
            if (after.len == before[s].len + 1) {
                EXPECT_EQ(after.headValue, pushed[s]);
                EXPECT_EQ(after.nodeSum, before[s].nodeSum + pushed[s]);
            } else {
                EXPECT_FALSE(resumes) << "push was not re-executed";
                EXPECT_EQ(after.len, before[s].len);
                EXPECT_EQ(after.nodeSum, before[s].nodeSum);
            }
        }

        // Both slots take new transactions afterwards.
        for (unsigned s = 0; s < 2; s++) {
            SlotBinding bind(s);
            size_t len = readList(*h.pool, roots[s]).len;
            txn::run(eng, kPushNode, roots[s], uint64_t{7});
            EXPECT_EQ(readList(*h.pool, roots[s]).len, len + 1);
        }
    }
    EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TwoSlotCrash,
    ::testing::ValuesIn([] {
        std::vector<TwoSlotCase> cases;
        for (RuntimeKind k :
             {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
              RuntimeKind::atlas, RuntimeKind::ido}) {
            for (txn::RecoveryMode m :
                 {txn::RecoveryMode::full, txn::RecoveryMode::lazy})
                cases.push_back({k, m});
        }
        return cases;
    }()),
    [](const auto& info) {
        std::string name;
        switch (info.param.kind) {
          case RuntimeKind::undo: name = "pmdk"; break;
          case RuntimeKind::redo: name = "mnemosyne"; break;
          case RuntimeKind::clobber: name = "clobber"; break;
          case RuntimeKind::atlas: name = "atlas"; break;
          case RuntimeKind::ido: name = "ido"; break;
          default: name = "other"; break;
        }
        return name + "_" + txn::recoveryModeName(info.param.mode);
    });

// ---------------------------------------------------------------
// A restart as a new process runs it: a new allocator and a new
// runtime over the torn pool, then Engine::recover — the path
// kvbench, cnvm_kvserver and the Fig. 9 TTFT sweep take. The sweeps
// above reuse one allocator across the crash, so every session they
// open starts the heap's scan over; here the session finishes the
// scan the new allocator ran (full) or armed (lazy).
// ---------------------------------------------------------------

struct RestartCase {
    RuntimeKind kind;
    txn::RecoveryMode mode;
};

class RestartSweep : public ::testing::TestWithParam<RestartCase> {
 protected:
    /**
     * Tear h's pool, then restart over it and run recovery to the end.
     * The free map must then mirror the bitmap. @return whether
     * recovery re-executed an interrupted transaction.
     */
    bool
    crashAndRestart(Harness& h, uint64_t seed)
    {
        auto [kind, mode] = GetParam();
        h.pool->simulateCrash(seed);
        h.runtime.reset();
        h.heap = std::make_unique<alloc::PmAllocator>(
            *h.pool, /* deferRebuild */ mode == txn::RecoveryMode::lazy);
        h.runtime = rt::makeRuntime(kind, *h.pool, *h.heap);
        txn::Engine eng(*h.runtime);
        auto pre = stats::aggregate();
        eng.recover(mode, /* backgroundHealer */ false);
        eng.finishRecovery();
        auto rec = stats::aggregate() - pre;
        expectFreeMapMatchesBitmap(*h.pool, *h.heap);
        EXPECT_EQ(h.heap->holdCount(), 0u);
        return rec[stats::Counter::reexecutions] > 0;
    }

    bool
    resumes() const
    {
        return GetParam().kind == RuntimeKind::clobber ||
               GetParam().kind == RuntimeKind::ido;
    }
};

/** CrashSweep's push sweep (each push allocates a node). */
TEST_P(RestartSweep, PushInterruptedAtEveryEvent)
{
    Harness h(GetParam().kind);
    CrashScheduler sched(*h.pool);
    {
        auto eng = h.engine();
        for (uint64_t v = 1; v <= 4; v++)
            txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    }
    uint64_t expectedSum = 10;
    size_t expectedLen = 4;

    bool sawCrash = false;
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1500; k++) {
        uint64_t value = 100 + k;
        bool crashed = false;
        {
            auto eng = h.engine();
            sched.arm(k);
            try {
                txn::run(eng, kPushNode, h.rootPtr().raw(), value);
            } catch (const nvm::CrashInjected&) {
                crashed = true;
                sawCrash = true;
            }
            sched.disarm();
        }
        if (crashed) {
            quietInARow = 0;
            bool reexecuted = crashAndRestart(h, 1234 + k);
            size_t len = h.listLen();
            if (resumes() && reexecuted)
                ASSERT_EQ(len, expectedLen + 1) << "crash point " << k;
            else
                ASSERT_TRUE(len == expectedLen || len == expectedLen + 1)
                    << "crash point " << k;
            if (len == expectedLen + 1) {
                expectedLen = len;
                expectedSum += value;
            }
        } else {
            quietInARow++;
            expectedLen++;
            expectedSum += value;
        }
        ASSERT_EQ(h.listLen(), expectedLen) << "crash point " << k;
        ASSERT_EQ(h.root().sum, expectedSum) << "crash point " << k;
        ASSERT_EQ(h.listSum(), expectedSum) << "crash point " << k;
    }
    EXPECT_TRUE(sawCrash);
}

/** CrashSweep's pop sweep (each pop frees a node at commit). */
TEST_P(RestartSweep, PopInterruptedAtEveryEvent)
{
    Harness h(GetParam().kind);
    CrashScheduler sched(*h.pool);
    {
        auto eng = h.engine();
        for (uint64_t v = 1; v <= 60; v++)
            txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    }
    size_t expectedLen = 60;

    bool sawCrash = false;
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1000 && expectedLen > 2;
         k++) {
        bool crashed = false;
        {
            auto eng = h.engine();
            sched.arm(k);
            try {
                txn::run(eng, kPopNode, h.rootPtr().raw());
            } catch (const nvm::CrashInjected&) {
                crashed = true;
                sawCrash = true;
            }
            sched.disarm();
        }
        if (crashed) {
            quietInARow = 0;
            bool reexecuted = crashAndRestart(h, 777 + k);
            size_t len = h.listLen();
            if (resumes() && reexecuted)
                ASSERT_EQ(len, expectedLen - 1) << "crash point " << k;
            else
                ASSERT_TRUE(len == expectedLen || len == expectedLen - 1)
                    << "crash point " << k;
            expectedLen = len;
        } else {
            quietInARow++;
            expectedLen--;
        }
        ASSERT_EQ(h.listLen(), expectedLen);
        ASSERT_EQ(h.root().sum, h.listSum()) << "crash point " << k;
    }
    EXPECT_TRUE(sawCrash);
}

/** The five protocols, each in full and lazy recovery. */
std::vector<RestartCase>
restartCases()
{
    std::vector<RestartCase> cases;
    for (RuntimeKind k :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        for (txn::RecoveryMode m :
             {txn::RecoveryMode::full, txn::RecoveryMode::lazy})
            cases.push_back({k, m});
    }
    return cases;
}

std::string
restartCaseName(const ::testing::TestParamInfo<RestartCase>& info)
{
    std::string name;
    switch (info.param.kind) {
      case RuntimeKind::undo: name = "pmdk"; break;
      case RuntimeKind::redo: name = "mnemosyne"; break;
      case RuntimeKind::clobber: name = "clobber"; break;
      case RuntimeKind::atlas: name = "atlas"; break;
      case RuntimeKind::ido: name = "ido"; break;
      default: name = "other"; break;
    }
    return name + "_" + txn::recoveryModeName(info.param.mode);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RestartSweep,
                         ::testing::ValuesIn(restartCases()),
                         restartCaseName);

// ---------------------------------------------------------------
// Recovery resets every slot's volatile state in place, on the
// runtime object that ran the crashed transaction. A reset slot must
// act like a new one: same recovery, same follow-up transaction.
// ---------------------------------------------------------------

/** What recovery plus the follow-up pushes cost, and what they left. */
struct AfterRecovery {
    uint64_t logEntries = 0;
    uint64_t fences = 0;
    uint64_t flushes = 0;
    size_t len = 0;
    uint64_t sum = 0;
};

class SlotReset : public ::testing::TestWithParam<RestartCase> {
 protected:
    /**
     * Push four nodes, crash the fifth push at persistency event `k`
     * and tear the pool. Then recover either on the same allocator and
     * runtime objects or on new ones, and push two more nodes.
     * `crashed` reports whether event `k` fell inside the push.
     *
     * Two follow-ups, not one: Atlas's dependency-ring cursor is
     * runtime-wide state that a new runtime starts at zero, and its
     * 32-byte records straddle a cache line every other position, so
     * only an even number of records flushes as many lines from any
     * cursor.
     */
    AfterRecovery
    crashRecoverPush(uint64_t k, bool newObjects, bool* crashed)
    {
        auto [kind, mode] = GetParam();
        Harness h(kind);
        {
            auto eng = h.engine();
            for (uint64_t v = 1; v <= 4; v++)
                txn::run(eng, kPushNode, h.rootPtr().raw(), v);
            CrashScheduler sched(*h.pool);
            sched.arm(k);
            try {
                txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{100});
            } catch (const nvm::CrashInjected&) {
                *crashed = true;
            }
        }
        h.pool->simulateCrash(4321 + k);
        if (newObjects) {
            h.runtime.reset();
            h.heap = std::make_unique<alloc::PmAllocator>(
                *h.pool, mode == txn::RecoveryMode::lazy);
            h.runtime = rt::makeRuntime(kind, *h.pool, *h.heap);
        }
        txn::Engine eng(*h.runtime);
        auto pre = stats::aggregate();
        eng.recover(mode, /* backgroundHealer */ false);
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{200});
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{300});
        eng.finishRecovery();
        auto d = stats::aggregate() - pre;
        AfterRecovery out;
        out.logEntries = d[stats::Counter::logEntries];
        out.fences = d[stats::Counter::fences];
        out.flushes = d[stats::Counter::flushes];
        out.len = h.listLen();
        out.sum = h.listSum();
        return out;
    }
};

/** Every crash point of the fifth push, until it outruns the trap. */
TEST_P(SlotReset, InPlaceResetActsLikeANewSlot)
{
    bool crashed = true;
    for (uint64_t k = 1; crashed; k++) {
        SCOPED_TRACE("crash point " + std::to_string(k));
        crashed = false;
        bool crashedToo = false;
        AfterRecovery same = crashRecoverPush(k, false, &crashed);
        AfterRecovery fresh = crashRecoverPush(k, true, &crashedToo);
        ASSERT_EQ(crashed, crashedToo);
        EXPECT_EQ(same.logEntries, fresh.logEntries);
        EXPECT_EQ(same.fences, fresh.fences);
        EXPECT_EQ(same.flushes, fresh.flushes);
        EXPECT_EQ(same.len, fresh.len);
        EXPECT_EQ(same.sum, fresh.sum);
        if (HasFailure())
            break;
    }
}

INSTANTIATE_TEST_SUITE_P(Protocols, SlotReset,
                         ::testing::ValuesIn(restartCases()),
                         restartCaseName);

/**
 * A media fault with no crash: a bitmap line poisoned after the heap
 * scanned it. The fault moves the pool's upset count, so recover()'s
 * session starts the scan over and quarantines the granules the line
 * administers instead of trusting the map built before the fault.
 */
TEST(RestartFaults, BitmapPoisonedAfterScanIsQuarantined)
{
    Harness h(RuntimeKind::clobber);
    {
        auto eng = h.engine();
        for (uint64_t v = 1; v <= 4; v++)
            txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    }
    h.pool->setFaultModel(
        std::make_unique<nvm::FaultModel>(nvm::FaultConfig{}));
    // One 64-byte bitmap line administers 512 granules; this one sits
    // mid-heap, where every granule is free.
    const uint64_t chunk = h.heap->dataBytes() / alloc::kGranule / 512 / 2;
    const uint64_t lo = h.heap->dataOff() + alloc::kGranule * 512 * chunk;
    const uint64_t bytes = alloc::kGranule * 512;
    ASSERT_FALSE(h.heap->isQuarantined(lo, bytes));
    h.pool->faults()->poisonAt(h.heap->bitmapOff() + 64 * chunk);

    txn::RecoveryReport rep = h.runtime->recover();
    EXPECT_EQ(rep.quarantinedBlocks, 1u);
    EXPECT_TRUE(h.heap->isQuarantined(lo, bytes));
    EXPECT_FALSE(h.heap->quarantineViolation());
    expectFreeMapMatchesBitmap(*h.pool, *h.heap);
    EXPECT_EQ(h.listLen(), 4u);
}

/** Clobber re-execution must observe the *restored* inputs. */
TEST(ClobberRecovery, ReexecutionSeesRestoredInputs)
{
    Harness h(RuntimeKind::clobber);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (int i = 0; i < 3; i++)
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
    ASSERT_EQ(h.root().counter, 3u);

    // Crash an increment after its clobber log + in-place store: the
    // re-execution must produce 4, not 5.
    uint64_t eventsPerIncr;
    {
        uint64_t before = sched.eventCount();
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
        eventsPerIncr = sched.eventCount() - before;
    }
    ASSERT_EQ(h.root().counter, 4u);
    for (uint64_t k = 1; k <= eventsPerIncr; k++) {
        uint64_t before = h.root().counter;
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kIncrCounter, h.rootPtr().raw());
            sched.disarm();
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sched.disarm();
            h.pool->cache().crashAllLost();
        }
        if (crashed) {
            auto preRec = stats::aggregate();
            h.runtime->recover();
            auto rec = stats::aggregate() - preRec;
            if (rec[stats::Counter::reexecutions] > 0) {
                // Re-execution must produce exactly one increment.
                ASSERT_EQ(h.root().counter, before + 1)
                    << "crash point " << k;
            } else {
                // Never begun (pre-v_log) or already committed.
                ASSERT_TRUE(h.root().counter == before ||
                            h.root().counter == before + 1)
                    << "crash point " << k;
            }
        } else {
            ASSERT_EQ(h.root().counter, before + 1);
        }
    }
}

/** The v_log must reproduce argument bytes exactly at re-execution. */
TEST(ClobberRecovery, VlogPreservesVolatileArguments)
{
    static const txn::FuncId kWriteBlob = txn::registerTxFunc(
        "test_write_blob", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            auto bytes = a.getBytes();
            // Read-modify-write so a clobber entry + v_log both exist.
            uint64_t c = tx.ld(root->counter);
            tx.st(root->counter, c + 1);
            auto node = tx.pnew<TestNode>(bytes.size());
            tx.st(node->value, uint64_t(bytes.size()));
            tx.stBytes(node.get() + 1, bytes.data(), bytes.size());
            tx.st(root->head, node);
        });

    std::string payload = "volatile-input-that-must-survive";

    // Sweep crash points on fresh harnesses until one lands after the
    // v_log persist, so recovery re-executes the txfunc from its
    // logged argument bytes.
    bool sawReexecution = false;
    for (uint64_t k = 1; k < 120 && !sawReexecution; k++) {
        Harness h(RuntimeKind::clobber);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kWriteBlob, h.rootPtr().raw(),
                     std::string_view(payload));
            sched.disarm();
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sched.disarm();
        }
        if (!crashed)
            break;  // the whole txfunc ran without reaching event k
        h.pool->cache().crashAllLost();
        auto preRec = stats::aggregate();
        h.runtime->recover();
        auto rec = stats::aggregate() - preRec;
        if (rec[stats::Counter::reexecutions] == 0)
            continue;  // crashed before the v_log persist
        sawReexecution = true;
        ASSERT_EQ(h.root().counter, 1u) << "crash point " << k;
        auto node = h.root().head;
        ASSERT_FALSE(node.isNull()) << "crash point " << k;
        ASSERT_EQ(node->value, payload.size()) << "crash point " << k;
        EXPECT_EQ(
            std::string(reinterpret_cast<const char*>(node.get() + 1),
                        payload.size()),
            payload)
            << "crash point " << k;
    }
    EXPECT_TRUE(sawReexecution);
}

}  // namespace
}  // namespace cnvm::test
