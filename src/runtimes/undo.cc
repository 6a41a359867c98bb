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
        // tear: per-entry fence required.
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
    if (st.damaged()) {
        // The scan saw damage, so some pre-images may be lost: the
        // roll-back restored every value that still validated, but a
        // full revert cannot be promised. Abandon the transaction,
        // visibly.
        salvageResetSlot(tid);
        sr.action = txn::SlotAction::salvageAborted;
        sr.note = st.sawPoison ? "undo log poisoned"
                               : "undo log corrupted mid-log";
    } else {
        persistIdle(tid);
        sr.action = txn::SlotAction::rolledBack;
        stats::bump(stats::Counter::recoveries);
    }
    recordSlot(std::move(sr));
}

}  // namespace cnvm::rt
