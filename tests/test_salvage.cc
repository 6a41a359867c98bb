/**
 * @file
 * Media-fault salvage tests: recovery over a pool whose NVM is not
 * just torn but *corrupt* — flipped bits mid-log, poisoned lines,
 * damaged intent tables. Each protocol must skip the damage with its
 * protocol-correct semantics (DESIGN.md §13), declare every salvage
 * action in the RecoveryReport, and leave the pool usable.
 *
 * The torture media sweep covers the same ground statistically; these
 * tests pin the individual salvage paths deterministically so a
 * regression names the exact path that broke.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "alloc/pm_allocator.h"
#include "nvm/fault_model.h"
#include "nvm/pool.h"
#include "runtimes/descriptor.h"
#include "runtimes/salvage.h"
#include "stats/counters.h"
#include "testing/crash_scheduler.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using torture::CrashScheduler;
using txn::RuntimeKind;

/** Append one self-validating entry; returns the next append pos. */
size_t
appendEntry(uint8_t* area, size_t pos, uint64_t targetOff,
            uint32_t seqLo, const uint8_t* payload, uint32_t len)
{
    rt::LogEntryHeader h{};
    h.targetOff = targetOff;
    h.len = len;
    h.seqLo = seqLo;
    h.checksum = rt::salvage::entryChecksum(h, payload);
    std::memcpy(area + pos, &h, sizeof(h));
    std::memcpy(area + pos + sizeof(h), payload, len);
    return pos + sizeof(h) + rt::salvage::alignUp8(len);
}

rt::TxDescriptor&
desc0(Harness& h)
{
    return *static_cast<rt::TxDescriptor*>(h.pool->slot(0));
}

uint8_t*
logArea0(Harness& h)
{
    return static_cast<uint8_t*>(h.pool->slot(0)) +
           rt::logAreaOffset();
}

size_t
logCap(Harness& h)
{
    return h.pool->slotBytes() - rt::logAreaOffset();
}

void
attachFaults(Harness& h)
{
    nvm::FaultConfig fc;
    fc.bitFlips = 1;
    fc.poisons = 1;
    fc.injectOnCrash = false;  // this suite injects by hand
    h.pool->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
}

/**
 * Crash a push at successive persistency events until slot 0 is left
 * status=ongoing with at least `minEntries` valid log entries. The
 * pool is left in the crashed (all-lost) state; attempts that crash
 * too early or too late are recovered and retried. Returns false if
 * the sweep runs out of crash points.
 */
bool
crashWithOngoingLog(Harness& h, CrashScheduler& sched,
                    txn::Engine& eng, size_t minEntries,
                    std::vector<rt::ScannedEntry>& entries)
{
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1500; k++) {
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), 100 + k);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        if (!crashed) {
            quietInARow++;
            continue;
        }
        quietInARow = 0;
        h.pool->cache().crashAllLost();
        rt::TxDescriptor& d = desc0(h);
        if (d.status == static_cast<uint64_t>(rt::TxStatus::ongoing)) {
            rt::salvage::ScanStats st;
            rt::salvage::scanLogArea(nullptr, logArea0(h), logCap(h),
                                     static_cast<uint32_t>(d.txSeq),
                                     entries, &st);
            if (!st.damaged() && entries.size() >= minEntries)
                return true;
        }
        h.runtime->recover();
    }
    return false;
}

// ---------------------------------------------------------------
// scanLogArea unit tests: the resync / torn-tail / poison triage.
// ---------------------------------------------------------------

TEST(ScanSalvage, ResyncsAcrossMidLogCorruption)
{
    alignas(64) uint8_t area[1024] = {};
    uint8_t pay[64];
    std::memset(pay, 0xab, sizeof(pay));
    size_t p1 = appendEntry(area, 0, 4096, 7, pay, 32);
    size_t p2 = appendEntry(area, p1, 8192, 7, pay, 32);
    appendEntry(area, p2, 12288, 7, pay, 32);
    // Corrupt the middle entry's payload: the scan must drop exactly
    // that entry, prove the damage via the valid same-seq successor,
    // and keep going.
    area[p1 + sizeof(rt::LogEntryHeader)] ^= 0x40;

    std::vector<rt::ScannedEntry> out;
    rt::salvage::ScanStats st;
    rt::salvage::scanLogArea(nullptr, area, sizeof(area), 7, out, &st);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].targetOff, 4096u);
    EXPECT_EQ(out[1].targetOff, 12288u);
    EXPECT_EQ(st.droppedEntries, 1u);
    EXPECT_TRUE(st.sawCorruption);
    EXPECT_FALSE(st.tornTail);
    EXPECT_TRUE(st.damaged());
}

TEST(ScanSalvage, TornTailWithoutSuccessorIsNotCorruption)
{
    alignas(64) uint8_t area[1024] = {};
    uint8_t pay[64];
    std::memset(pay, 0xcd, sizeof(pay));
    size_t p1 = appendEntry(area, 0, 4096, 9, pay, 32);
    size_t p2 = appendEntry(area, p1, 8192, 9, pay, 32);
    appendEntry(area, p2, 12288, 9, pay, 32);
    // Corrupt the LAST entry: with no valid same-seq successor this
    // is indistinguishable from an ordinary torn append and must NOT
    // be classified as media damage.
    area[p2 + sizeof(rt::LogEntryHeader)] ^= 0x40;

    std::vector<rt::ScannedEntry> out;
    rt::salvage::ScanStats st;
    rt::salvage::scanLogArea(nullptr, area, sizeof(area), 9, out, &st);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_TRUE(st.tornTail);
    EXPECT_FALSE(st.sawCorruption);
    EXPECT_FALSE(st.damaged());
}

TEST(ScanSalvage, PoisonedPayloadDropsSingleEntry)
{
    Harness h(RuntimeKind::undo);
    attachFaults(h);
    // Build a three-entry log in (unused) slot 1 sized so that entry
    // 1's payload occupies exactly one cache line of its own.
    uint8_t* area = static_cast<uint8_t*>(h.pool->slot(1)) +
                    rt::logAreaOffset();
    uint8_t pay[64];
    std::memset(pay, 0x5a, sizeof(pay));
    size_t p1 = appendEntry(area, 0, 4096, 3, pay, 16);   // ends at 40
    ASSERT_EQ(p1, 40u);
    size_t p2 = appendEntry(area, p1, 8192, 3, pay, 64);  // pay @ 64
    ASSERT_EQ(p2, 128u);
    appendEntry(area, p2, 12288, 3, pay, 16);
    h.pool->faults()->poisonAt(h.pool->offsetOf(area + 64));

    std::vector<rt::ScannedEntry> out;
    rt::salvage::ScanStats st;
    rt::salvage::scanLogArea(h.pool.get(), area, 512, 3, out, &st);
    // Valid header, poisoned payload: drop just that entry.
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(st.droppedEntries, 1u);
    EXPECT_TRUE(st.sawPoison);
    EXPECT_FALSE(st.sawCorruption);
    EXPECT_TRUE(st.damaged());
}

// ---------------------------------------------------------------
// Protocol salvage paths.
// ---------------------------------------------------------------

TEST(UndoSalvage, MidLogFlipAbortsVisiblyAndHeals)
{
    Harness h(RuntimeKind::undo);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    std::vector<rt::ScannedEntry> entries;
    ASSERT_TRUE(crashWithOngoingLog(h, sched, eng, 2, entries));
    attachFaults(h);
    // Flip one bit in the FIRST entry's pre-image: mid-log damage
    // with valid successors — the rollback cannot fully revert.
    h.pool->faults()->flipBit(
        *h.pool, h.pool->offsetOf(entries[0].data), 3);

    txn::RecoveryReport rep = h.runtime->recover();
    EXPECT_EQ(rep.salvageAborted, 1u);
    EXPECT_GE(rep.logEntriesDropped, 1u);
    EXPECT_FALSE(rep.clean());
    ASSERT_FALSE(rep.slots.empty());
    bool declared = false;
    for (const auto& s : rep.slots) {
        if (s.action == txn::SlotAction::salvageAborted) {
            declared = true;
            EXPECT_EQ(s.note, "undo log corrupted mid-log");
        }
    }
    EXPECT_TRUE(declared);

    // The slot was rebuilt (healed), so the engine keeps working and
    // the next recovery pass has nothing left to salvage.
    size_t len = h.listLen();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
    EXPECT_EQ(h.listLen(), len + 1);
    EXPECT_TRUE(h.runtime->recover().clean());
}

TEST(ClobberSalvage, PoisonedLogRestoresWithoutReexecution)
{
    Harness h(RuntimeKind::clobber);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    std::vector<rt::ScannedEntry> entries;
    ASSERT_TRUE(crashWithOngoingLog(h, sched, eng, 1, entries));
    attachFaults(h);
    // Poison the first log line: some clobbered inputs are gone, so
    // re-executing the txfunc would read garbage. Recovery must
    // restore what validated and refuse to resume.
    h.pool->faults()->poisonAt(h.pool->offsetOf(logArea0(h)));

    auto pre = stats::aggregate();
    txn::RecoveryReport rep = h.runtime->recover();
    auto delta = stats::aggregate() - pre;
    EXPECT_EQ(delta[stats::Counter::reexecutions], 0u);
    EXPECT_GE(rep.salvageAborted, 1u);
    EXPECT_GE(rep.poisonedReads, 1u);
    bool declared = false;
    for (const auto& s : rep.slots) {
        if (s.action == txn::SlotAction::salvageAborted) {
            declared = true;
            EXPECT_EQ(s.note, "clobber log poisoned");
        }
    }
    EXPECT_TRUE(declared);

    // Log appends overwrite the poisoned line, healing it.
    size_t len = h.listLen();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
    EXPECT_EQ(h.listLen(), len + 1);
    EXPECT_TRUE(h.runtime->recover().clean());
}

TEST(RedoSalvage, CommittingLogCorruptionLosesTransactionVisibly)
{
    // Redo's committing state promises roll-forward; a damaged log
    // breaks that promise and must be declared as a LOST committed
    // transaction, never replayed partially.
    bool exercised = false;
    for (uint64_t k = 1; k < 1500 && !exercised; k++) {
        Harness h(RuntimeKind::redo);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{2});
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{777});
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        if (!crashed)
            break;  // k is past every event of a push
        h.pool->cache().crashAllLost();
        rt::TxDescriptor& d = desc0(h);
        if (d.status != static_cast<uint64_t>(rt::TxStatus::committing))
            continue;
        std::vector<rt::ScannedEntry> entries;
        rt::salvage::ScanStats st;
        rt::salvage::scanLogArea(nullptr, logArea0(h), logCap(h),
                                 static_cast<uint32_t>(d.txSeq),
                                 entries, &st);
        if (st.damaged() || entries.empty())
            continue;
        attachFaults(h);
        h.pool->faults()->flipBit(
            *h.pool, h.pool->offsetOf(entries[0].data), 1);

        txn::RecoveryReport rep = h.runtime->recover();
        EXPECT_GE(rep.salvageAborted, 1u);
        bool declared = false;
        for (const auto& s : rep.slots) {
            if (s.action == txn::SlotAction::salvageAborted) {
                declared = true;
                EXPECT_NE(s.note.find("committed transaction lost"),
                          std::string::npos);
            }
        }
        EXPECT_TRUE(declared);
        // The baseline survives and the engine stays usable.
        EXPECT_GE(h.listLen(), 2u);
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
        EXPECT_TRUE(h.runtime->recover().clean());
        exercised = true;
    }
    EXPECT_TRUE(exercised);
}

TEST(IntentSalvage, PoisonedIntentTableIsDeclaredLost)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});

    // Stage a live-looking intent table on the idle slot, then poison
    // it: the guarded intent path must declare the table lost instead
    // of replaying garbage into the allocator bitmap — and must not
    // be shadowed by the begin-record vetting in slotRecoverable.
    rt::TxDescriptor& d = desc0(h);
    d.intentSeq = d.txSeq;
    d.intentCount = 1;
    d.intents[0].payloadOff = h.root().head.raw();
    d.intents[0].payloadBytes = sizeof(TestNode);
    d.intents[0].isFree = 0;
    d.intentSum = rt::salvage::intentChecksum(d.intentSeq,
                                              d.intentCount, d.intents);
    attachFaults(h);
    // Poison a line wholly inside the table: the line holding
    // intentSeq itself also carries the tail of the v_log args, so
    // poisoning it trips the (stricter) begin-record guard instead.
    h.pool->faults()->poisonAt(h.pool->offsetOf(&d.intents[16]));

    txn::RecoveryReport rep = h.runtime->recover();
    EXPECT_EQ(rep.intentTablesLost, 1u);
    EXPECT_GE(rep.salvageAborted, 1u);
    bool declared = false;
    for (const auto& s : rep.slots) {
        if (s.action == txn::SlotAction::salvageAborted) {
            declared = true;
            EXPECT_EQ(s.note, "alloc intent table unreadable or corrupt");
        }
    }
    EXPECT_TRUE(declared);
    // The reset rewrote the descriptor, clearing the poison.
    EXPECT_TRUE(h.runtime->recover().clean());
}

// ---------------------------------------------------------------
// Instant restart: the triage / heal split behind lazy recovery.
// Every protocol's full recover() is now triage + healSlot per slot
// + healHeap; these tests pin the pieces individually.
// ---------------------------------------------------------------

/**
 * Crash a push on slot 0 at successive event indices until the torn
 * image actually leaves the slot pending (a crash before the status
 * line durably flipped reverts to a clean slot, which triage rightly
 * ignores). Attempts that land clean are recovered and retried.
 * @return false if the sweep runs out of crash points.
 */
bool
crashUntilTriagePending(Harness& h, CrashScheduler& sched,
                        txn::Engine& eng)
{
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    for (uint64_t k = 5; k < 1500; k++) {
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{50});
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        if (!crashed)
            return false;  // swept past every event of the push
        h.pool->cache().crashAllLost();
        if (!h.runtime->recoveryTriage().entries.empty())
            return true;
        h.runtime->recover();  // clean image: discard, next index
    }
    return false;
}

/**
 * Triage must be repeatable: running it twice over the same torn
 * image yields the same classification, and it never touches the
 * dirty slot's durable state (healing is a separate, later step).
 */
TEST(LazyTriage, TriageIsStableAndLeavesDirtySlotsUntouched)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        SCOPED_TRACE(static_cast<int>(kind));
        Harness h(kind);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        ASSERT_TRUE(crashUntilTriagePending(h, sched, eng));

        rt::TxDescriptor before = desc0(h);
        txn::RecoveryIndex a = h.runtime->recoveryTriage();
        txn::RecoveryIndex b = h.runtime->recoveryTriage();
        ASSERT_EQ(a.entries.size(), b.entries.size());
        for (size_t i = 0; i < a.entries.size(); i++) {
            EXPECT_EQ(a.entries[i].tid, b.entries[i].tid);
            EXPECT_EQ(static_cast<int>(a.entries[i].cls),
                      static_cast<int>(b.entries[i].cls));
        }
        ASSERT_FALSE(a.entries.empty());
        EXPECT_EQ(a.entries[0].tid, 0u);
        rt::TxDescriptor& after = desc0(h);
        EXPECT_EQ(after.status, before.status);
        EXPECT_EQ(after.txSeq, before.txSeq);

        // The untouched image still heals fully.
        h.runtime->recover();
        EXPECT_TRUE(h.listLen() == 4 || h.listLen() == 5);
        EXPECT_EQ(h.root().sum, h.listSum());
    }
}

/**
 * healSlot is the per-entry heal step: applying it to every triaged
 * entry plus one healHeap must equal a full recover(), and applying
 * it twice must change nothing (the heal re-derives the slot's class
 * from the media, and a healed slot is simply clean).
 */
TEST(LazyHeal, PerEntryHealsAreCompleteAndIdempotent)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        SCOPED_TRACE(static_cast<int>(kind));
        Harness h(kind);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        ASSERT_TRUE(crashUntilTriagePending(h, sched, eng));

        txn::RecoveryIndex idx = h.runtime->recoveryTriage();
        ASSERT_FALSE(idx.entries.empty());
        for (const txn::IndexEntry& e : idx.entries)
            h.runtime->healSlot(e);
        size_t len = h.listLen();
        uint64_t sum = h.root().sum;
        EXPECT_TRUE(len == 4 || len == 5);
        EXPECT_EQ(sum, h.listSum());
        // Healing an already-healed entry is a no-op.
        for (const txn::IndexEntry& e : idx.entries)
            h.runtime->healSlot(e);
        EXPECT_EQ(h.listLen(), len);
        EXPECT_EQ(h.root().sum, sum);
        h.runtime->healHeap();

        EXPECT_TRUE(h.runtime->recover().clean());
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
        EXPECT_EQ(h.listLen(), len + 1);
    }
}

/**
 * Exhaustive re-tear of the lazy path itself: arm the crash trap at
 * every event index inside triage + first-touch heals + settle,
 * re-tearing after each trap, until a full lazy recovery runs quiet.
 * Every retry re-triages from scratch; the final state must satisfy
 * the protocol's atomicity contract.
 */
TEST(LazyReTear, LazyRecoverySurvivesCrashesAtEveryIndex)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        SCOPED_TRACE(static_cast<int>(kind));
        Harness h(kind);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        ASSERT_TRUE(crashUntilTriagePending(h, sched, eng));

        int recoveryCrashes = 0;
        for (uint64_t k = 1; k < 800; k++) {
            sched.arm(k);
            bool recCrashed = false;
            try {
                eng.recover(txn::RecoveryMode::lazy,
                            /* backgroundHealer */ false);
                for (unsigned t = 0; t < h.pool->maxThreads(); t++)
                    eng.admitSlot(t);
                eng.finishRecovery();
            } catch (const nvm::CrashInjected&) {
                recCrashed = true;
                recoveryCrashes++;
            }
            sched.disarm();
            if (!recCrashed)
                break;
            h.pool->cache().crashAllLost();
        }
        EXPECT_GT(recoveryCrashes, 0);
        EXPECT_EQ(eng.recoveryPending(), 0u);
        EXPECT_TRUE(h.listLen() == 4 || h.listLen() == 5);
        EXPECT_EQ(h.root().sum, h.listSum());
        EXPECT_TRUE(h.runtime->recover().clean());
    }
}

/**
 * Triaged hold ranges pin suspect heap blocks out of the free map
 * until the owning slot's entry heals; settling the session releases
 * everything and reconciles the heap.
 */
TEST(LazyHolds, IntentHoldsPinnedUntilEntryHeals)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});

    // Stage a live intent table on the idle slot: triage must report
    // the slot pending and pin the intent's block as a hold range.
    rt::TxDescriptor& d = desc0(h);
    d.intentSeq = d.txSeq;
    d.intentCount = 1;
    d.intents[0].payloadOff = h.root().head.raw();
    d.intents[0].payloadBytes = sizeof(TestNode);
    d.intents[0].isFree = 0;
    d.intentSum = rt::salvage::intentChecksum(d.intentSeq,
                                              d.intentCount, d.intents);

    txn::RecoveryIndex idx = h.runtime->recoveryTriage();
    ASSERT_EQ(idx.entries.size(), 1u);
    EXPECT_EQ(idx.entries[0].tid, 0u);
    EXPECT_EQ(static_cast<int>(idx.entries[0].cls),
              static_cast<int>(txn::SlotClass::idleIntents));
    ASSERT_EQ(idx.holds.size(), 1u);
    EXPECT_EQ(idx.holds[0].tid, 0u);

    eng.recover(txn::RecoveryMode::lazy, /* backgroundHealer */ false);
    EXPECT_EQ(h.heap->holdCount(), 1u);
    EXPECT_GE(eng.recoveryPending(), 1u);

    // First touch heals the entry and releases its holds.
    eng.admitSlot(0);
    EXPECT_EQ(h.heap->holdCount(), 0u);

    eng.finishRecovery();
    EXPECT_EQ(eng.recoveryPending(), 0u);
    EXPECT_TRUE(h.runtime->recover().clean());
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{2});
    EXPECT_EQ(h.listLen(), 2u);
}

// ---------------------------------------------------------------
// Regression guards: the ordinary crash path stays clean, and the
// report is surfaced through the engine.
// ---------------------------------------------------------------

TEST(CleanCrash, OrdinaryTornRecoveryReportsClean)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        Harness h(kind);
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
        ASSERT_TRUE(crashed) << "kind " << static_cast<int>(kind);
        h.pool->cache().crashAllLost();
        txn::RecoveryReport rep = h.runtime->recover();
        EXPECT_TRUE(rep.clean()) << rep.toString();
        EXPECT_TRUE(h.listLen() == 4 || h.listLen() == 5);
    }
}

TEST(EngineReport, LastRecoveryIsKept)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});
    txn::RecoveryReport rep = eng.recover();
    EXPECT_EQ(rep.slotsScanned, h.pool->maxThreads());
    EXPECT_EQ(eng.lastRecovery.slotsScanned, h.pool->maxThreads());
    EXPECT_TRUE(eng.lastRecovery.clean());
}

TEST(VerifyPool, CleanPoolThenCorruptBlockHeader)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 3; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    rt::salvage::VerifyResult clean = rt::salvage::verifyPool(*h.pool);
    EXPECT_TRUE(clean.ok()) << (clean.problems.empty()
                                    ? ""
                                    : clean.problems.front());

    // Smash the leading block header of the allocated run (the walk
    // validates one header per run; the root object, as the first
    // allocation, leads it).
    uint64_t a = h.pool->root();
    alloc::BlockHeader bad{};
    bad.payloadBytes = 64;
    bad.check = 0xbadbad;
    std::memcpy(h.pool->base() + a - sizeof(alloc::BlockHeader), &bad,
                sizeof(bad));
    rt::salvage::VerifyResult dirty = rt::salvage::verifyPool(*h.pool);
    EXPECT_FALSE(dirty.ok());
}

}  // namespace
}  // namespace cnvm::test
