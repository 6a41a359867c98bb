#include "runtimes/undo.h"

#include "stats/counters.h"

namespace cnvm::rt {

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
UndoRuntime::healOngoing(unsigned tid)
{
    salvage::ScanStats st;
    uint64_t applied = rollBackLog(tid, &st);
    if (st.damaged()) {
        // The scan saw damage, so some pre-images may be lost: the
        // roll-back restored every value that still validated, but a
        // full revert cannot be promised. Abandon the transaction,
        // visibly.
        declareSalvageAbort(tid,
                            st.sawPoison ? "undo log poisoned"
                                         : "undo log corrupted mid-log",
                            applied, st.droppedEntries);
        return;
    }
    persistIdle(tid);
    stats::bump(stats::Counter::recoveries);
    txn::SlotRecovery sr;
    sr.tid = tid;
    sr.action = txn::SlotAction::rolledBack;
    sr.entriesApplied = applied;
    sr.entriesDropped = st.droppedEntries;
    recordSlot(std::move(sr));
}

}  // namespace cnvm::rt
