#include "runtimes/undo.h"

#include <cstring>

#include "common/error.h"
#include "stats/counters.h"

namespace cnvm::rt {

void
UndoRuntime::txBegin(unsigned tid, txn::FuncId fid,
                     std::span<const uint8_t> args)
{
    stageBegin(tid, fid, args, /* persistArgs */ false);
}

void
UndoRuntime::maybeUndoLog(unsigned tid, void* dst, size_t n)
{
    SlotState& s = slot(tid);
    auto [first, last] = blockRangeOf(dst, n);
    // storeRun invariant (undo): every block in the run is LOGGED, so
    // sequential overwrites of an already-logged range skip the probes.
    if (s.inStoreRun(first, last))
        return;
    bool needLog = false;
    for (uint64_t b = first; b <= last; b++) {
        uint8_t& st = s.blocks.ref(b);
        if (!(st & BlockMap::kLogged))
            needLog = true;
        st |= BlockMap::kLogged;
    }
    if (needLog) {
        // The undo image must be durable before the in-place write can
        // tear: per-entry fence required. (The zero/zerocached log
        // writers elide this fence and recovery compensates with a
        // declared salvage abort — see rollbackSlot.)
        appendLogEntry(tid, pool_.offsetOf(dst), dst,
                       static_cast<uint32_t>(n), LogFence::required);
        stats::bump(stats::Counter::undoEntries);
        stats::bump(stats::Counter::undoBytes, n);
    }
    s.noteStoreRun(first, last);
}

void
UndoRuntime::store(unsigned tid, void* dst, const void* src, size_t n)
{
    if (n == 0)
        return;
    ensureBegun(tid);
    maybeUndoLog(tid, dst, n);
    writeDirty(tid, dst, src, n);
}

void
UndoRuntime::load(unsigned, void* dst, const void* src, size_t n)
{
    std::memcpy(dst, src, n);
}

void
UndoRuntime::txCommit(unsigned tid)
{
    SlotState& s = slot(tid);
    CNVM_CHECK(s.inTx, "commit outside transaction");
    if (!s.begunPersist) {
        // Read-only transaction: nothing durable happened.
        s.inTx = false;
        stats::bump(stats::Counter::txCommits);
        return;
    }
    // Staged log bytes (zerocached writer) must be on media and
    // flushed before the data fence below: once any in-place write is
    // durable while the slot is still ongoing, recovery depends on
    // the full undo log being there. The commit fence retires the
    // seal's flushes together with the write-back.
    sealLog(tid);
    persistIntentsAndAllocs(tid);
    flushDirty(tid);
    pool_.fence();
    persistIdle(tid);
    finishIntentsAfterCommit(tid);
    s.inTx = false;
}

void
UndoRuntime::rollbackSlot(unsigned tid)
{
    salvage::ScanStats st;
    const auto& entries = scanLog(tid, &st);
    uint64_t applied = 0;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (it->targetOff == kMarkerOff)
            continue;  // bookkeeping record, not a memory image
        pool_.writeAt(it->targetOff, it->data, it->len);
        pool_.flush(pool_.at(it->targetOff), it->len);
        applied++;
    }
    pool_.fence();
    recoverIntents(tid, /* committed */ false);
    txn::SlotRecovery sr;
    sr.tid = tid;
    sr.entriesApplied = applied;
    sr.entriesDropped = st.droppedEntries;
    if (st.damaged() || logWriterElides()) {
        // Some pre-images were unrecoverable — or an eliding log
        // writer was active, in which case an in-place write can have
        // outlived its (unfenced) undo entry and the log's clean end
        // proves nothing: a fully-torn trailing entry is
        // indistinguishable from one never appended. Either way the
        // roll-back restored every value that still validated, but a
        // full revert cannot be promised. Abandon the transaction,
        // visibly.
        salvageResetSlot(tid);
        sr.action = txn::SlotAction::salvageAborted;
        if (st.damaged()) {
            sr.note = st.sawPoison ? "undo log poisoned"
                                   : "undo log corrupted mid-log";
        } else {
            sr.note = "zero-fence log writer: roll-back is "
                      "best-effort";
        }
    } else {
        persistIdle(tid);
        sr.action = txn::SlotAction::rolledBack;
        stats::bump(stats::Counter::recoveries);
    }
    recordSlot(std::move(sr));
}

}  // namespace cnvm::rt
