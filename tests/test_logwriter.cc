/**
 * @file
 * Pluggable log-writer tests (DESIGN.md §15).
 *
 * Three contracts under test, each across both writers
 * (baseline / zerocached):
 *
 *  - Overflow is a transaction-level failure, not a process panic:
 *    a transaction that outgrows its per-thread log area throws
 *    txn::LogOverflowError, txn::run aborts just that transaction,
 *    and the slot is immediately reusable.
 *
 *  - All-or-nothing recovery is writer-independent under allLost
 *    tears: commit paths seal the staged log before their data fence,
 *    so crashing any protocol at any persistency event and reverting
 *    every volatile line recovers to exactly the pre- or post-image —
 *    with the eliding writer allowed (and, mid-transaction, expected)
 *    to *declare* its best-effort roll-back while the baseline
 *    writer never declares on a plain tear.
 *
 *  - Triage: a half-flushed staging window at the log tail is a torn
 *    tail (declared with the zero-fence note, no corruption claim),
 *    while a flipped bit inside an already-durable entry is mid-log
 *    corruption (declared with the "corrupted" note). The media axis
 *    is also exercised end-to-end via small torture sweeps with
 *    CNVM_LOG_WRITER=zerocached.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "runtimes/descriptor.h"
#include "runtimes/log_writer.h"
#include "stats/counters.h"
#include "testing/crash_scheduler.h"
#include "testing/torture.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using rt::LogWriterKind;
using torture::CrashScheduler;
using txn::RuntimeKind;

const RuntimeKind kAllKinds[] = {RuntimeKind::undo, RuntimeKind::clobber,
                                 RuntimeKind::redo, RuntimeKind::atlas,
                                 RuntimeKind::ido};
const LogWriterKind kAllWriters[] = {LogWriterKind::baseline,
                                     LogWriterKind::zerocached};

constexpr uint64_t kRegionWords = 8;
constexpr uint64_t kChunkBytes = 1024;

/** Allocate a region of `bytes` and publish its offset in root->sum
 *  (a committed setup transaction). Only the head of the region — the
 *  kLwMulti mirror words — is zeroed; interpose-zeroing a multi-100KB
 *  region would itself overflow the log this file tests. */
const txn::FuncId kLwPrep = txn::registerTxFunc(
    "lwtest_prep", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        auto bytes = a.get<uint64_t>();
        uint64_t off = tx.pmallocOff(bytes);
        auto* base = static_cast<uint8_t*>(tx.pool().at(off));
        const uint8_t zeros[64] = {};
        uint64_t zeroed = bytes < sizeof(zeros) ? bytes : sizeof(zeros);
        tx.stBytes(base, zeros, zeroed);
        tx.st(root->sum, off);
    });

/** RMW every chunk of the region (full-chunk read *then* write, so
 *  every protocol — including clobber's anti-dependence rule — logs a
 *  chunk-sized pre-image) until the log area overflows. */
const txn::FuncId kLwSpam = txn::registerTxFunc(
    "lwtest_spam", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        auto chunks = a.get<uint64_t>();
        uint64_t off = tx.ld(root->sum);
        uint64_t c = tx.ld(root->counter);
        tx.st(root->counter, c + 1);
        auto* base = static_cast<uint8_t*>(tx.pool().at(off));
        uint8_t buf[kChunkBytes];
        for (uint64_t i = 0; i < chunks; i++) {
            tx.ldBytes(buf, base + i * kChunkBytes, kChunkBytes);
            for (auto& b : buf)
                b ^= 0x5a;
            tx.stBytes(base + i * kChunkBytes, buf, kChunkBytes);
        }
    });

/** counter++ mirrored into the first kRegionWords words of the region:
 *  after any committed prefix, word[i] == counter for all i. */
const txn::FuncId kLwMulti = txn::registerTxFunc(
    "lwtest_multi", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        uint64_t off = tx.ld(root->sum);
        uint64_t c = tx.ld(root->counter);
        tx.st(root->counter, c + 1);
        auto* words = static_cast<uint64_t*>(tx.pool().at(off));
        for (uint64_t i = 0; i < kRegionWords; i++) {
            uint64_t v;
            tx.ldBytes(&v, &words[i], sizeof(v));
            v = c + 1;
            tx.stBytes(&words[i], &v, sizeof(v));
        }
    });

void
prepRegion(Harness& h, uint64_t bytes)
{
    auto eng = h.engine();
    txn::run(eng, kLwPrep, h.rootPtr().raw(), bytes);
}

TEST(LogWriterTest, NameParsing)
{
    LogWriterKind k = LogWriterKind::baseline;
    EXPECT_TRUE(rt::logWriterKindFromName("baseline", &k));
    EXPECT_EQ(k, LogWriterKind::baseline);
    EXPECT_TRUE(rt::logWriterKindFromName("zerocached", &k));
    EXPECT_EQ(k, LogWriterKind::zerocached);
    EXPECT_TRUE(rt::logWriterKindFromName("zero-cached", &k));
    EXPECT_EQ(k, LogWriterKind::zerocached);
    EXPECT_FALSE(rt::logWriterKindFromName("bogus", &k));
    EXPECT_EQ(k, LogWriterKind::zerocached);  // untouched on failure
    EXPECT_FALSE(rt::logWriterKindFromName("zero", &k));

    for (auto w : kAllWriters) {
        LogWriterKind back = LogWriterKind::baseline;
        ASSERT_TRUE(
            rt::logWriterKindFromName(rt::logWriterName(w), &back));
        EXPECT_EQ(back, w);
    }

    setenv("CNVM_LOG_WRITER", "zerocached", 1);
    EXPECT_EQ(rt::logWriterKindFromEnv(), LogWriterKind::zerocached);
    setenv("CNVM_LOG_WRITER", "no-such-engine", 1);
    EXPECT_EQ(rt::logWriterKindFromEnv(), LogWriterKind::baseline);
    setenv("CNVM_LOG_WRITER", "zero", 1);
    EXPECT_EQ(rt::logWriterKindFromEnv(), LogWriterKind::baseline);
    unsetenv("CNVM_LOG_WRITER");
    EXPECT_EQ(rt::logWriterKindFromEnv(), LogWriterKind::baseline);
}

/**
 * A transaction that outgrows the 128 KiB test slot throws
 * LogOverflowError; only that transaction is aborted (its RMWs are
 * rolled back) and the slot commits the next transaction normally.
 */
TEST(LogWriterTest, OverflowAbortsOnlyTheTransaction)
{
    // 256 chunk-sized pre-images ≈ 268 KB of entries > the slot's
    // ~120 KB log capacity for every protocol.
    constexpr uint64_t kChunks = 256;
    for (auto kind : kAllKinds) {
        for (auto writer : kAllWriters) {
            SCOPED_TRACE(std::string(rt::logWriterName(writer)) + "/" +
                         std::to_string(static_cast<int>(kind)));
            Harness h(kind);
            ASSERT_TRUE(rt::selectLogWriter(*h.runtime, writer));
            prepRegion(h, kChunks * kChunkBytes);
            auto eng = h.engine();
            txn::run(eng, kLwMulti, h.rootPtr().raw());
            ASSERT_EQ(h.root().counter, 1u);

            bool threw = false;
            try {
                txn::run(eng, kLwSpam, h.rootPtr().raw(), kChunks);
            } catch (const txn::LogOverflowError& e) {
                threw = true;
                EXPECT_GT(e.need(), e.capacity());
                EXPECT_GT(e.capacity(), 0u);
            }
            ASSERT_TRUE(threw) << "spam transaction fit the log";
            // The aborted transaction's counter RMW was rolled back.
            EXPECT_EQ(h.root().counter, 1u);

            // The slot is reusable: the next transaction commits.
            txn::run(eng, kLwMulti, h.rootPtr().raw());
            EXPECT_EQ(h.root().counter, 2u);
        }
    }
}

/**
 * Crash kLwMulti at every persistency event under an allLost tear:
 * recovery must land on exactly the pre- or post-image for every
 * writer. The baseline writer never declares salvage on a plain tear;
 * the eliding writer may (its mid-transaction roll-back is
 * best-effort by contract), but the recovered *state* is the same.
 */
TEST(LogWriterTest, AllOrNothingAtEveryEventAcrossWriters)
{
    for (auto kind : kAllKinds) {
        for (auto writer : kAllWriters) {
            SCOPED_TRACE(std::string(rt::logWriterName(writer)) + "/" +
                         std::to_string(static_cast<int>(kind)));
            Harness h(kind);
            ASSERT_TRUE(rt::selectLogWriter(*h.runtime, writer));
            prepRegion(h, kRegionWords * 8);
            uint64_t regionOff = h.root().sum;
            CrashScheduler sched(*h.pool);
            auto eng = h.engine();

            uint64_t committed = 0;
            uint64_t declared = 0;
            int quiet = 0;
            auto checkImage = [&](uint64_t expectLo) {
                uint64_t c = h.root().counter;
                ASSERT_TRUE(c == expectLo || c == expectLo + 1)
                    << "counter " << c << " after committed "
                    << expectLo;
                const auto* words = static_cast<const uint64_t*>(
                    h.pool->at(regionOff));
                for (uint64_t i = 0; i < kRegionWords; i++)
                    ASSERT_EQ(words[i], c)
                        << "word " << i << " torn at counter " << c;
                committed = c;
            };
            for (uint64_t k = 1; quiet < 2 && k < 1000; k++) {
                sched.arm(k);
                bool crashed = false;
                try {
                    txn::run(eng, kLwMulti, h.rootPtr().raw());
                } catch (const nvm::CrashInjected&) {
                    crashed = true;
                }
                sched.disarm();
                if (!crashed) {
                    quiet++;
                    uint64_t prev = committed;
                    checkImage(prev);
                    ASSERT_EQ(committed, prev + 1);  // it committed
                    continue;
                }
                quiet = 0;
                h.pool->simulateCrashAllLost();
                auto rep = h.runtime->recover();
                if (writer == LogWriterKind::baseline) {
                    EXPECT_EQ(rep.salvageAborted, 0u)
                        << "baseline declared salvage on a plain "
                           "allLost tear at event "
                        << k;
                }
                declared += rep.salvageAborted;
                checkImage(committed);
            }
            EXPECT_GT(committed, 2u);
            // The eliding writer must have hit at least one
            // mid-transaction crash that it declared — except redo,
            // which buffers in-place writes and so never needs to:
            // losing unfenced redo entries before the commit record
            // is indistinguishable from never appending them.
            if (writer != LogWriterKind::baseline &&
                kind != RuntimeKind::redo) {
                EXPECT_GT(declared, 0u);
            }
        }
    }
}

/**
 * A crash that loses the staged/unfenced log tail is a *torn tail*:
 * the declared slot carries the zero-fence note, not a corruption or
 * poison claim.
 */
TEST(LogWriterTest, TornStagingTailDeclaresZeroFenceNotCorruption)
{
    Harness h(RuntimeKind::undo);
    ASSERT_TRUE(
        rt::selectLogWriter(*h.runtime, LogWriterKind::zerocached));
    prepRegion(h, kRegionWords * 8);
    auto eng = h.engine();
    txn::run(eng, kLwMulti, h.rootPtr().raw());

    // Event 20 lands mid-transaction, past several appends (the
    // transaction stages 9 entries and generates far more events).
    CrashScheduler sched(*h.pool);
    sched.arm(20);
    bool crashed = false;
    try {
        txn::run(eng, kLwMulti, h.rootPtr().raw());
    } catch (const nvm::CrashInjected&) {
        crashed = true;
    }
    sched.disarm();
    ASSERT_TRUE(crashed);
    h.pool->simulateCrashAllLost();
    auto rep = h.runtime->recover();
    ASSERT_GE(rep.salvageAborted, 1u) << rep.toString();
    EXPECT_EQ(rep.poisonedReads, 0u);
    bool sawNote = false;
    for (const auto& sr : rep.slots) {
        if (sr.action != txn::SlotAction::salvageAborted)
            continue;
        sawNote = true;
        EXPECT_NE(sr.note.find("zero-fence"), std::string::npos)
            << sr.note;
        EXPECT_EQ(sr.note.find("corrupt"), std::string::npos)
            << sr.note;
        EXPECT_EQ(sr.note.find("poison"), std::string::npos) << sr.note;
    }
    EXPECT_TRUE(sawNote);
    EXPECT_EQ(h.root().counter, 1u);
}

/**
 * A bit flip inside an entry that *was* durably written (sealed
 * staging lines, then fenced) is mid-log corruption, and triage must
 * say so — torn-tail leniency must not mask real media damage.
 */
TEST(LogWriterTest, BitFlipInDurableEntryTriagesAsCorruption)
{
    Harness h(RuntimeKind::undo);
    ASSERT_TRUE(
        rt::selectLogWriter(*h.runtime, LogWriterKind::zerocached));
    prepRegion(h, 16 * 64);
    uint64_t regionOff = h.root().sum;

    // Drive the runtime directly: 16 cache-line stores append 16
    // 88-byte undo entries (1408 bytes = 5 full staging windows copied
    // out + a staged residue). The manual fence makes the copied-out
    // prefix durable; the crash then drops the residue.
    auto& rtm = *h.runtime;
    rtm.txBegin(0, kIncrCounter, {});
    auto* base = static_cast<uint8_t*>(h.pool->at(regionOff));
    uint8_t buf[64];
    std::memset(buf, 0xab, sizeof(buf));
    for (int i = 0; i < 16; i++)
        rtm.store(0, base + i * 64, buf, sizeof(buf));
    h.pool->fence();
    h.pool->simulateCrashAllLost();

    // Flip one payload bit of the second entry, post-crash (media
    // damage, invisible to the cache model). Entry stride = 24-byte
    // header + 64-byte payload = 88.
    auto* area =
        static_cast<uint8_t*>(h.pool->slot(0)) + rt::logAreaOffset();
    area[88 + sizeof(rt::LogEntryHeader) + 11] ^= 0x04;

    auto rep = rtm.recover();
    ASSERT_GE(rep.salvageAborted, 1u) << rep.toString();
    bool sawCorrupt = false;
    for (const auto& sr : rep.slots)
        if (sr.action == txn::SlotAction::salvageAborted &&
            sr.note.find("corrupted") != std::string::npos)
            sawCorrupt = true;
    EXPECT_TRUE(sawCorrupt) << rep.toString();
    EXPECT_GE(rep.logEntriesDropped, 1u);

    // The pool stays usable after the declared abort.
    auto eng = h.engine();
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 1u);
}

/**
 * The staging window is fixed at 4 lines (256 B). kLwMulti appends 9
 * undo entries of 32 B (24-byte header + 8-byte payload), 288 B in
 * all, so one full window retires mid-transaction and the commit seal
 * copies out the 32-byte rest. A crash between the two rolls back.
 */
TEST(LogWriterTest, StagingWindowRetiresMidTransaction)
{
    Harness h(RuntimeKind::undo);
    ASSERT_TRUE(
        rt::selectLogWriter(*h.runtime, LogWriterKind::zerocached));
    prepRegion(h, kRegionWords * 8);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kLwMulti, h.rootPtr().raw());
    auto d = stats::aggregate() - before;
    EXPECT_EQ(d[stats::Counter::logBytes], 9u * 32);
    EXPECT_EQ(d[stats::Counter::logFlushes], 2u);  // retire + seal

    // Crash at each event in turn until one lands after the retire
    // and before the seal; every such crash rolls the counter back.
    CrashScheduler sched(*h.pool);
    bool between = false;
    for (uint64_t k = 1; !between; k++) {
        uint64_t c = h.root().counter;
        before = stats::aggregate();
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kLwMulti, h.rootPtr().raw());
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        ASSERT_TRUE(crashed)
            << "no crash landed between the retire and the seal";
        auto flushed = stats::aggregate() - before;
        between = flushed[stats::Counter::logFlushes] == 1;
        h.pool->simulateCrashAllLost();
        h.runtime->recover();
        ASSERT_EQ(h.root().counter, c) << "event " << k;
    }
    txn::run(eng, kLwMulti, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 2u);
}

/**
 * End-to-end torture smoke under the zerocached writer: the
 * crash-point sweep (declared aborts honored, rig rebuilt) and the
 * media-fault sweep (bit flips / poison / transients on the log area)
 * both pass. TortureRig reads CNVM_LOG_WRITER at construction.
 */
TEST(LogWriterTest, TortureSweepsUnderZeroCached)
{
    setenv("CNVM_LOG_WRITER", "zerocached", 1);

    torture::SweepConfig scfg;
    scfg.tear = torture::Tear::allLost;
    scfg.budget = 60;
    auto sres =
        torture::exhaustiveSweep(RuntimeKind::undo, "list", scfg);
    EXPECT_TRUE(sres.passed) << sres.failure;

    torture::MediaSweepConfig mcfg;
    mcfg.budget = 10;
    mcfg.faults.bitFlips = 1;
    mcfg.faults.poisons = 1;
    mcfg.faults.transients = 1;
    auto mres =
        torture::mediaFaultSweep(RuntimeKind::clobber, "list", mcfg);
    EXPECT_TRUE(mres.passed) << mres.failure;

    unsetenv("CNVM_LOG_WRITER");
}

}  // namespace
}  // namespace cnvm::test
