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
#include <functional>
#include <memory>
#include <optional>

#include "alloc/pm_allocator.h"
#include "common/checksum.h"
#include "common/rand.h"
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
// Media checksums (pool layout v3): one representative record each.
// ---------------------------------------------------------------

/** One covered 8-byte media word: its index and the bits it covers
 *  (a record's last payload word is covered only up to its length). */
struct CoveredWord {
    size_t index;
    uint64_t mask = ~0ULL;
};

/**
 * Exhaustive over one record: flip each covered bit of each covered
 * word alone, and replace each covered word with 0, all-ones and 16
 * pseudo-random values. Every variant `sum` accepts must change the
 * checksum and none may read 0. `sum` recomputes the checksum from
 * `rec` as recovery does, or returns nullopt when the record's length
 * field is one recovery rejects before summing.
 */
void
expectEveryWordCounts(uint8_t* rec, const std::vector<CoveredWord>& words,
                      const std::function<std::optional<uint64_t>()>& sum)
{
    std::optional<uint64_t> base = sum();
    ASSERT_TRUE(base.has_value());
    ASSERT_NE(*base, 0u);
    Xorshift rng(23);
    size_t variants = 0;
    for (const CoveredWord& cw : words) {
        uint64_t orig;
        std::memcpy(&orig, rec + cw.index * 8, 8);
        std::vector<uint64_t> diffs;
        for (int b = 0; b < 64; b++)
            diffs.push_back(1ULL << b);
        diffs.push_back(orig);
        diffs.push_back(~orig);
        for (int i = 0; i < 16; i++)
            diffs.push_back(rng.next());
        for (uint64_t diff : diffs) {
            diff &= cw.mask;
            if (diff == 0)
                continue;
            uint64_t torn = orig ^ diff;
            std::memcpy(rec + cw.index * 8, &torn, 8);
            std::optional<uint64_t> s = sum();
            std::memcpy(rec + cw.index * 8, &orig, 8);
            if (!s.has_value())
                continue;
            variants++;
            EXPECT_NE(*s, *base) << "word " << cw.index << " xor 0x"
                                 << std::hex << diff;
            EXPECT_NE(*s, 0u);
        }
    }
    EXPECT_GT(variants, words.size() * 60);
}

TEST(MediaChecksum, LogEntryChangesWithEveryWord)
{
    // Header (targetOff | len, seqLo | checksum) then a 20-byte
    // payload in three words, the last covered for 4 bytes.
    alignas(8) uint8_t rec[sizeof(rt::LogEntryHeader) + 24] = {};
    rt::LogEntryHeader h{};
    h.targetOff = 0x12345678;
    h.len = 20;
    h.seqLo = 0xabcdef01;
    for (size_t i = 0; i < 20; i++)
        rec[sizeof(h) + i] = static_cast<uint8_t>(0x40 + i * 7);
    const uint8_t* data = rec + sizeof(h);
    h.checksum = rt::salvage::entryChecksum(h, data);
    std::memcpy(rec, &h, sizeof(h));
    auto sum = [&]() -> std::optional<uint64_t> {
        rt::LogEntryHeader m;
        std::memcpy(&m, rec, sizeof(m));
        if (m.len == 0 ||
            sizeof(m) + rt::salvage::alignUp8(m.len) > sizeof(rec))
            return std::nullopt;  // scanLogArea's bounds check
        return rt::salvage::entryChecksum(m, data);
    };
    expectEveryWordCounts(rec, {{0}, {1}, {3}, {4}, {5, 0xffffffffULL}},
                          sum);

    // A record whose raw sum is 0 reads 1: fold the header words, and
    // make the 8-byte payload equal the state they leave.
    rt::LogEntryHeader z{};
    z.targetOff = 77;
    z.len = 8;
    z.seqLo = 5;
    WordSum prefix;
    prefix.add(z.targetOff);
    prefix.add(uint64_t{z.len} | uint64_t{z.seqLo} << 32);
    uint64_t payload = prefix.value();
    ASSERT_GT(payload, 1u);
    EXPECT_EQ(rt::salvage::entryChecksum(
                  z, reinterpret_cast<const uint8_t*>(&payload)),
              1u);
}

TEST(MediaChecksum, BeginRecordChangesWithEveryWord)
{
    auto d = std::make_unique<rt::TxDescriptor>();
    std::memset(d.get(), 0, sizeof(*d));
    d->status = static_cast<uint64_t>(rt::TxStatus::ongoing);
    d->txSeq = 0x1122334455;
    d->fid = 0xfeedbeef;
    d->argLen = 37;
    for (size_t i = 0; i < d->argLen; i++)
        d->args[i] = static_cast<uint8_t>(i * 13 + 1);
    auto* rec = reinterpret_cast<uint8_t*>(d.get());
    constexpr size_t kArgs = offsetof(rt::TxDescriptor, args) / 8;
    static_assert(offsetof(rt::TxDescriptor, txSeq) == 8 &&
                  offsetof(rt::TxDescriptor, fid) == 16 &&
                  offsetof(rt::TxDescriptor, argLen) == 20);
    expectEveryWordCounts(
        rec,
        {{1}, {2}, {kArgs}, {kArgs + 1}, {kArgs + 2}, {kArgs + 3},
         {kArgs + 4, 0xffffffffffULL}},
        [&]() -> std::optional<uint64_t> {
            return rt::salvage::beginChecksum(*d);
        });

    d->argLen = 8;
    WordSum prefix;
    prefix.add(d->txSeq);
    prefix.add(uint64_t{d->fid} | uint64_t{d->argLen} << 32);
    uint64_t arg = prefix.value();
    ASSERT_GT(arg, 1u);
    std::memcpy(d->args, &arg, sizeof(arg));
    EXPECT_EQ(rt::salvage::beginChecksum(*d), 1u);
}

TEST(MediaChecksum, IntentTableChangesWithEveryWord)
{
    auto d = std::make_unique<rt::TxDescriptor>();
    std::memset(d.get(), 0, sizeof(*d));
    d->txSeq = d->intentSeq = 991;
    d->intentCount = 3;
    for (uint32_t i = 0; i < 3; i++) {
        d->intents[i].payloadOff = 4096 + i * 160;
        d->intents[i].payloadBytes = 40 + i;
        d->intents[i].isFree = i % 2;
    }
    auto* rec = reinterpret_cast<uint8_t*>(d.get());
    constexpr size_t kSeq = offsetof(rt::TxDescriptor, intentSeq) / 8;
    constexpr size_t kTable = offsetof(rt::TxDescriptor, intents) / 8;
    static_assert(offsetof(rt::TxDescriptor, intentSeq) % 8 == 0 &&
                  offsetof(rt::TxDescriptor, intentCount) ==
                      offsetof(rt::TxDescriptor, intentSeq) + 8 &&
                  sizeof(rt::AllocIntent) == 24);
    std::vector<CoveredWord> words{{kSeq}, {kSeq + 1, 0xffffffffULL}};
    for (size_t w = 0; w < 9; w++)
        words.push_back({kTable + w});
    expectEveryWordCounts(rec, words, [&]() -> std::optional<uint64_t> {
        if (d->intentCount > rt::kMaxIntents)
            return std::nullopt;  // intentsLive's bound check
        return rt::salvage::intentChecksum(d->intentSeq,
                                           d->intentCount, d->intents);
    });

    d->intentCount = 1;
    WordSum prefix;
    prefix.add(d->intentSeq);
    prefix.add(d->intentCount);
    prefix.add(d->intents[0].payloadOff);
    prefix.add(d->intents[0].payloadBytes);
    uint64_t last = prefix.value();
    ASSERT_GT(last, 1u);
    std::memcpy(&d->intents[0].isFree, &last, sizeof(last));
    EXPECT_EQ(rt::salvage::intentChecksum(d->intentSeq, d->intentCount,
                                          d->intents),
              1u);
}

TEST(MediaChecksum, QuarantineTableChangesWithEveryWord)
{
    auto qt = std::make_unique<alloc::QuarantineTable>();
    std::memset(qt.get(), 0, sizeof(*qt));
    qt->count = 2;
    qt->entries[0] = {1 << 20, 4096, alloc::kQuarPoisonedBitmap, 0};
    qt->entries[1] = {3 << 20, 160, alloc::kQuarCorruptHeader, 0};
    auto* rec = reinterpret_cast<uint8_t*>(qt.get());
    constexpr size_t kEntries =
        offsetof(alloc::QuarantineTable, entries) / 8;
    static_assert(offsetof(alloc::QuarantineTable, count) == 0 &&
                  sizeof(alloc::QuarantineEntry) == 24);
    std::vector<CoveredWord> words{{0, 0xffffffffULL}};
    for (size_t w = 0; w < 6; w++)
        words.push_back({kEntries + w});
    expectEveryWordCounts(rec, words, [&]() -> std::optional<uint64_t> {
        if (qt->count > alloc::QuarantineTable::kCapacity)
            return std::nullopt;  // the allocator's bound check
        return alloc::quarantineChecksum(qt->count, qt->entries);
    });

    qt->count = 1;
    WordSum prefix;
    prefix.add(qt->count);
    prefix.add(qt->entries[0].off);
    prefix.add(qt->entries[0].bytes);
    uint64_t last = prefix.value();
    ASSERT_GT(last, 1u);
    std::memcpy(&qt->entries[0].reason, &last, sizeof(last));
    EXPECT_EQ(alloc::quarantineChecksum(qt->count, qt->entries), 1u);
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

/** The salvage record a recovery declared for `tid`, or null. */
const txn::SlotRecovery*
declaredFor(const txn::RecoveryReport& rep, unsigned tid)
{
    for (const auto& s : rep.slots) {
        if (s.tid == tid && s.action == txn::SlotAction::salvageAborted)
            return &s;
    }
    return nullptr;
}

/** One way to damage a crashed slot's log, with the note, the
 *  per-slot entry counts and the `recoveries` bumps recovery must
 *  show for it. */
struct LogDamage {
    bool poison;  ///< poison the first log line; else flip a bit of
                  ///< entry `flip`'s payload
    size_t flip;
    size_t minEntries;
    const char* note;
    uint64_t applied;
    uint64_t dropped;
    uint64_t recoveries;
    /** False when the lost image leaves the durable list head naming
     *  the abandoned (freed) node, which the next push would reuse
     *  and link to itself. */
    bool listSurvives = true;
};

/**
 * Crash a push on slot 0 with at least c.minEntries entries in its
 * log, damage the log as `c` says, and recover: the slot must be
 * declared salvage-aborted (never re-executed) with c's note and
 * counts, and then take the next transaction and recover clean.
 */
void
expectDamagedLogDeclared(RuntimeKind kind, const LogDamage& c)
{
    SCOPED_TRACE(c.note);
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    std::vector<rt::ScannedEntry> entries;
    ASSERT_TRUE(crashWithOngoingLog(h, sched, eng, c.minEntries, entries));
    attachFaults(h);
    if (c.poison)
        h.pool->faults()->poisonAt(h.pool->offsetOf(logArea0(h)));
    else
        h.pool->faults()->flipBit(
            *h.pool, h.pool->offsetOf(entries[c.flip].data), 3);

    auto pre = stats::aggregate();
    txn::RecoveryReport rep = h.runtime->recover();
    auto delta = stats::aggregate() - pre;
    EXPECT_EQ(delta[stats::Counter::reexecutions], 0u);
    EXPECT_EQ(delta[stats::Counter::salvageAborts], 1u);
    EXPECT_EQ(delta[stats::Counter::recoveries], c.recoveries);
    EXPECT_EQ(rep.salvageAborted, 1u);
    EXPECT_EQ(rep.logEntriesDropped, c.dropped);
    EXPECT_FALSE(rep.clean());
    if (c.poison) {
        EXPECT_GE(rep.poisonedReads, 1u);
    }
    const txn::SlotRecovery* s = declaredFor(rep, 0);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->note, c.note);
    EXPECT_EQ(s->entriesApplied, c.applied);
    EXPECT_EQ(s->entriesDropped, c.dropped);

    // The slot was rebuilt and log appends overwrite the damaged
    // line, so the engine keeps working and the next recovery pass
    // has nothing left to salvage.
    if (c.listSurvives) {
        size_t len = h.listLen();
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
        EXPECT_EQ(h.listLen(), len + 1);
    } else {
        uint64_t counter = h.root().counter;
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
        EXPECT_EQ(h.root().counter, counter + 1);
    }
    EXPECT_TRUE(h.runtime->recover().clean());
}

TEST(UndoSalvage, DamagedLogAbortsVisiblyAndHeals)
{
    // A flip in the FIRST entry's pre-image is mid-log damage with a
    // valid successor; a poisoned first line holds both entries, so
    // the scan finds none and counts one dropped stretch. Either way
    // the roll-back cannot promise a full revert.
    expectDamagedLogDeclared(RuntimeKind::undo,
                             {false, 0, 2, "undo log corrupted mid-log",
                              1, 1, 0});
    expectDamagedLogDeclared(RuntimeKind::undo,
                             {true, 0, 2, "undo log poisoned", 0, 1, 0});
}

TEST(ClobberSalvage, DamagedLogRestoresWithoutReexecution)
{
    // Some clobbered inputs are gone, so re-executing the txfunc
    // would read garbage. Recovery must restore what validated and
    // refuse to resume, and the abandoned transaction does not count
    // as repaired. The flip needs a valid successor entry to read as
    // mid-log damage rather than a torn tail.
    expectDamagedLogDeclared(RuntimeKind::clobber,
                             {true, 0, 1, "clobber log poisoned", 0, 1, 0});
    expectDamagedLogDeclared(RuntimeKind::clobber,
                             {false, 0, 2, "clobber log corrupted mid-log",
                              1, 1, 0});
    // iDO's log is region marker, head image, marker: with the image
    // flipped, the markers that still validate are not applied
    // images. The second marker made the head store durable, so the
    // head keeps naming the abandoned node.
    expectDamagedLogDeclared(RuntimeKind::ido,
                             {false, 1, 3, "clobber log corrupted mid-log",
                              0, 1, 0, false});
}

TEST(ClobberSalvage, ReexecutionOverflowAbortsVisibly)
{
    // 256 chunk-sized clobber entries overflow the 128 KiB test slot.
    // A crash before the overflow point leaves the transaction
    // ongoing; its re-execution then overflows, and recovery must
    // restore the re-execution's writes and declare the abort.
    constexpr uint64_t kChunks = 256;
    Harness h(RuntimeKind::clobber);
    auto eng = h.engine();
    txn::run(eng, kRegionPrep, h.rootPtr().raw(),
             kChunks * kRegionChunkBytes);
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    ASSERT_EQ(h.root().counter, 1u);

    CrashScheduler sched(*h.pool);
    bool exercised = false;
    for (uint64_t k = 1; k < 200 && !exercised; k++) {
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kRegionSpam, h.rootPtr().raw(), kChunks);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        ASSERT_TRUE(crashed) << "no crash at event " << k;
        h.pool->cache().crashAllLost();
        if (!rt::salvage::beginLive(desc0(h))) {
            h.runtime->recover();
            continue;
        }
        auto pre = stats::aggregate();
        txn::RecoveryReport rep = h.runtime->recover();
        auto delta = stats::aggregate() - pre;
        EXPECT_EQ(delta[stats::Counter::reexecutions], 0u);
        EXPECT_EQ(delta[stats::Counter::salvageAborts], 1u);
        // The abandoned transaction was not repaired.
        EXPECT_EQ(delta[stats::Counter::recoveries], 0u);
        EXPECT_EQ(rep.salvageAborted, 1u);
        const txn::SlotRecovery* s = declaredFor(rep, 0);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->note, "re-execution aborted: transaction log "
                           "overflow: transaction too large for the "
                           "per-thread log area");
        EXPECT_EQ(s->entriesApplied, 0u);
        EXPECT_EQ(s->entriesDropped, 0u);
        // The re-execution's counter RMW was restored.
        EXPECT_EQ(h.root().counter, 1u);
        exercised = true;
    }
    ASSERT_TRUE(exercised);
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 2u);
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

        auto pre = stats::aggregate();
        txn::RecoveryReport rep = h.runtime->recover();
        auto delta = stats::aggregate() - pre;
        EXPECT_EQ(delta[stats::Counter::salvageAborts], 1u);
        EXPECT_EQ(rep.salvageAborted, 1u);
        const txn::SlotRecovery* s = declaredFor(rep, 0);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->note, "committed transaction lost: redo log "
                           "corrupted");
        EXPECT_EQ(s->entriesApplied, 0u);
        EXPECT_EQ(s->entriesDropped, 1u);
        // The baseline survives and the engine stays usable.
        EXPECT_GE(h.listLen(), 2u);
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
        EXPECT_TRUE(h.runtime->recover().clean());
        exercised = true;
    }
    EXPECT_TRUE(exercised);
}

TEST(IntentSalvage, DamagedIdleDescriptorIsDeclaredAndReset)
{
    // An idle slot carries a live-looking intent table, damaged either
    // in the table or in the begin record in front of it. The guarded
    // intent path must declare a damaged table lost instead of
    // replaying garbage into the allocator bitmap, and must not be
    // shadowed by the begin-record vetting in slotRecoverable. A
    // damaged begin record misroutes the whole slot, so that vetting
    // declares the slot before its table is read.
    const struct {
        size_t at;    ///< descriptor byte to damage
        bool poison;  ///< poison its line; else flip its low bit
        const char* note;
        uint64_t tablesLost;
    } kCases[] = {
        // A line wholly inside the table: the line holding intentSeq
        // also carries the tail of the v_log args, so poisoning it
        // trips the (stricter) begin-record guard instead.
        {offsetof(rt::TxDescriptor, intents) + 16 * sizeof(rt::AllocIntent),
         true, "alloc intent table unreadable or corrupt", 1},
        {offsetof(rt::TxDescriptor, status), true, "descriptor poisoned",
         0},
        {offsetof(rt::TxDescriptor, fid), false,
         "descriptor tainted (bit flip)", 0},
    };
    for (const auto& c : kCases) {
        SCOPED_TRACE(c.note);
        Harness h(RuntimeKind::undo);
        auto eng = h.engine();
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});

        rt::TxDescriptor& d = desc0(h);
        uint64_t seq = d.txSeq;
        d.intentSeq = d.txSeq;
        d.intentCount = 1;
        d.intents[0].payloadOff = h.root().head.raw();
        d.intents[0].payloadBytes = sizeof(TestNode);
        d.intents[0].isFree = 0;
        d.intentSum = rt::salvage::intentChecksum(
            d.intentSeq, d.intentCount, d.intents);
        attachFaults(h);
        uint64_t at = h.pool->offsetOf(&d) + c.at;
        if (c.poison)
            h.pool->faults()->poisonAt(at);
        else
            h.pool->faults()->flipBit(*h.pool, at, 0);

        auto pre = stats::aggregate();
        txn::RecoveryReport rep = h.runtime->recover();
        auto delta = stats::aggregate() - pre;
        EXPECT_EQ(delta[stats::Counter::salvageAborts], 1u);
        EXPECT_EQ(rep.intentTablesLost, c.tablesLost);
        EXPECT_EQ(rep.salvageAborted, 1u);
        const txn::SlotRecovery* s = declaredFor(rep, 0);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->note, c.note);
        EXPECT_EQ(s->entriesApplied, 0u);
        EXPECT_EQ(s->entriesDropped, 0u);
        // The reset rewrote the descriptor, clearing the damage, and
        // bumped the sequence past the abandoned table's.
        EXPECT_EQ(d.status, static_cast<uint64_t>(rt::TxStatus::idle));
        EXPECT_EQ(d.txSeq, seq + 1);
        EXPECT_TRUE(h.runtime->recover().clean());
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{2});
        EXPECT_EQ(h.listLen(), 2u);
    }
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

TEST(VerifyPool, DamagedAllocatorMagicIsAProblem)
{
    // Only a zero magic means an unformatted heap; any other wrong
    // value is a damaged header, which the next open heals.
    Harness h(RuntimeKind::undo);
    auto* ah = static_cast<alloc::AllocHeader*>(
        h.pool->at(h.pool->heapOff()));
    ah->magic ^= 1u << 9;
    rt::salvage::VerifyResult r = rt::salvage::verifyPool(*h.pool);
    ASSERT_EQ(r.problems.size(), 1u);
    EXPECT_EQ(r.problems.front(), "heap: allocator magic damaged");
}

TEST(VerifyPool, AllocatorHeaderOffTheGeometryIsAProblem)
{
    // The layout is a function of the pool geometry: a header that
    // differs is damage a restart would heal in place, and a heap
    // region too small for any layout is reported, not a panic.
    Harness h(RuntimeKind::undo);
    auto* ah = static_cast<alloc::AllocHeader*>(
        h.pool->at(h.pool->heapOff()));
    ah->bitmapBytes += 64;
    rt::salvage::VerifyResult r = rt::salvage::verifyPool(*h.pool);
    ASSERT_EQ(r.problems.size(), 1u);
    EXPECT_EQ(r.problems.front(), "heap: allocator header differs from "
                                  "the layout the pool geometry fixes");
    ah->bitmapBytes -= 64;

    auto* ph = reinterpret_cast<nvm::PoolHeader*>(h.pool->base());
    uint64_t heapSize = ph->heapSize;
    ph->heapSize = 1024;  // smaller than the header and quarantine table
    r = rt::salvage::verifyPool(*h.pool);
    ph->heapSize = heapSize;
    ASSERT_EQ(r.problems.size(), 1u);
    EXPECT_EQ(r.problems.front(),
              "heap: region too small for the allocator's layout");
}

}  // namespace
}  // namespace cnvm::test
