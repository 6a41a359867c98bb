/**
 * @file
 * Log-append tests (DESIGN.md §15).
 *
 * Three contracts under test:
 *
 *  - Overflow is a transaction-level failure, not a process panic:
 *    a transaction that outgrows its per-thread log area throws
 *    txn::LogOverflowError, txn::run aborts just that transaction,
 *    and the slot is immediately reusable.
 *
 *  - All-or-nothing recovery: crashing any protocol at any
 *    persistency event and reverting every volatile line recovers to
 *    exactly the pre- or post-image, and never declares a salvage
 *    abort on such a plain tear.
 *
 *  - Triage: a flipped bit inside an already-durable entry is mid-log
 *    corruption (declared with the "corrupted" note).
 */
#include <gtest/gtest.h>

#include <cstring>

#include "runtimes/descriptor.h"
#include "testing/crash_scheduler.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using torture::CrashScheduler;
using txn::RuntimeKind;

const RuntimeKind kAllKinds[] = {RuntimeKind::undo, RuntimeKind::clobber,
                                 RuntimeKind::redo, RuntimeKind::atlas,
                                 RuntimeKind::ido};

/** kRegionPrep zeroes at least these mirror words (64 bytes). */
constexpr uint64_t kRegionWords = 8;

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
    txn::run(eng, kRegionPrep, h.rootPtr().raw(), bytes);
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
        SCOPED_TRACE(std::to_string(static_cast<int>(kind)));
        Harness h(kind);
        prepRegion(h, kChunks * kRegionChunkBytes);
        auto eng = h.engine();
        txn::run(eng, kLwMulti, h.rootPtr().raw());
        ASSERT_EQ(h.root().counter, 1u);

        bool threw = false;
        try {
            txn::run(eng, kRegionSpam, h.rootPtr().raw(), kChunks);
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

/**
 * Crash kLwMulti at every persistency event under an allLost tear:
 * recovery must land on exactly the pre- or post-image, and never
 * declare salvage on such a plain tear.
 */
TEST(LogWriterTest, AllOrNothingAtEveryEvent)
{
    for (auto kind : kAllKinds) {
        SCOPED_TRACE(std::to_string(static_cast<int>(kind)));
        Harness h(kind);
        prepRegion(h, kRegionWords * 8);
        uint64_t regionOff = h.root().sum;
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();

        uint64_t committed = 0;
        int quiet = 0;
        auto checkImage = [&](uint64_t expectLo) {
            uint64_t c = h.root().counter;
            ASSERT_TRUE(c == expectLo || c == expectLo + 1)
                << "counter " << c << " after committed " << expectLo;
            const auto* words =
                static_cast<const uint64_t*>(h.pool->at(regionOff));
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
            EXPECT_EQ(rep.salvageAborted, 0u)
                << "declared salvage on a plain allLost tear at event "
                << k;
            checkImage(committed);
        }
        EXPECT_GT(committed, 2u);
    }
}

/**
 * A bit flip inside an entry that was durably written is mid-log
 * corruption, and triage must say so — torn-tail leniency must not
 * mask real media damage.
 */
TEST(LogWriterTest, BitFlipInDurableEntryTriagesAsCorruption)
{
    Harness h(RuntimeKind::undo);
    prepRegion(h, 16 * 64);
    uint64_t regionOff = h.root().sum;

    // Drive the runtime directly: 16 cache-line stores append 16
    // 88-byte undo entries, each fenced before its store. The crash
    // then drops the unflushed in-place stores.
    auto& rtm = *h.runtime;
    rtm.txBegin(0, kIncrCounter, {});
    auto* base = static_cast<uint8_t*>(h.pool->at(regionOff));
    uint8_t buf[64];
    std::memset(buf, 0xab, sizeof(buf));
    for (int i = 0; i < 16; i++)
        rtm.store(0, base + i * 64, buf, sizeof(buf));
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

}  // namespace
}  // namespace cnvm::test
