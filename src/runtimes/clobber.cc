#include "runtimes/clobber.h"

#include <cstring>

#include "alloc/pm_allocator.h"
#include "common/error.h"
#include "nvm/fault_model.h"
#include "stats/counters.h"
#include "txn/registry.h"
#include "txn/tx.h"

namespace cnvm::rt {

thread_local bool ClobberRuntime::recovering_ = false;

void
ClobberRuntime::txBegin(unsigned tid, txn::FuncId fid,
                        std::span<const uint8_t> args)
{
    stageBegin(tid, fid, args, /* persistArgs */ vlogEnabled_);
}

void
ClobberRuntime::load(unsigned tid, void* dst, const void* src, size_t n)
{
    if (n == 0)
        return;
    // During recovery re-execution the txfunc's input reads come from
    // the media; a poisoned line must raise rather than silently feed
    // the re-execution garbage. Outside recovery this is a null check.
    if (recovering_ && pool_.faults() != nullptr)
        pool_.checkRead(src, n);
    SlotState& s = slot(tid);
    auto [first, last] = blockRangeOf(src, n);
    if (!s.inLoadRun(first, last)) {
        for (uint64_t b = first; b <= last; b++) {
            uint8_t& st = s.blocks.ref(b);
            // Reading your own write is not an input read.
            if (!(st & (BlockMap::kRead | BlockMap::kWritten)))
                st |= BlockMap::kRead;
        }
        // loadRun invariant (clobber): READ or WRITTEN already set, so
        // a repeat load of these blocks has nothing to record.
        s.noteLoadRun(first, last);
    }
    std::memcpy(dst, src, n);
}

void
ClobberRuntime::appendClobberEntry(unsigned tid, void* dst, size_t n)
{
    if (!clobberLogEnabled_)
        return;
    // clobber_log: undo-log the overwritten input before the store
    // (entry write + flush + fence, via the shared undo machinery).
    // The entry must cover whole kBlock units, not just the stored
    // bytes: write-set suppression is block-granular, so a later
    // store to the *other* bytes of a block logged here is never
    // logged itself. A block is pristine when it first enters the
    // log (the READ bit requires a load before any store to the
    // block), so the widened image is the true pre-state. The fence
    // matters: the clobbered line can tear independently of the log
    // line, so the entry should be durable before the in-place write
    // executes. Under the zerocached writer it is elided and
    // healOngoing() compensates by declaring the interrupted
    // transaction salvage-aborted instead of re-executing it.
    uint64_t off = pool_.offsetOf(dst);
    uint64_t lo = off & ~(kBlock - 1);
    uint64_t hi = (off + n + kBlock - 1) & ~(kBlock - 1);
    appendLogEntry(tid, lo, pool_.at(lo), static_cast<uint32_t>(hi - lo),
                   LogFence::required);
    stats::bump(stats::Counter::clobberEntries);
    stats::bump(stats::Counter::clobberBytes, hi - lo);
    stats::bump(stats::Counter::undoEntries);
    stats::bump(stats::Counter::undoBytes, hi - lo);
}

void
ClobberRuntime::store(unsigned tid, void* dst, const void* src, size_t n)
{
    if (n == 0)
        return;
    ensureBegun(tid);
    SlotState& s = slot(tid);
    auto [first, last] = blockRangeOf(dst, n);
    // storeRun invariant (refined clobber): every block in the run is
    // WRITTEN, so nothing can clobber and the bits are already set —
    // sequential overwrites skip the hash entirely. The conservative
    // policy re-logs every store to a read block, so it must always
    // take the probing path.
    if (policy_ == ClobberPolicy::refined &&
        s.inStoreRun(first, last)) {
        writeDirty(tid, dst, src, n);
        return;
    }
    bool clobbers = false;
    for (uint64_t b = first; b <= last; b++) {
        uint8_t& st = s.blocks.ref(b);
        if ((st & BlockMap::kRead) &&
            (policy_ == ClobberPolicy::conservative ||
             !(st & BlockMap::kWritten))) {
            clobbers = true;
        }
        st |= BlockMap::kWritten;
    }
    if (clobbers)
        appendClobberEntry(tid, dst, n);
    if (policy_ == ClobberPolicy::refined)
        s.noteStoreRun(first, last);
    writeDirty(tid, dst, src, n);
}

void
ClobberRuntime::txCommit(unsigned tid)
{
    SlotState& s = slot(tid);
    CNVM_CHECK(s.inTx, "commit outside transaction");
    if (!s.begunPersist) {
        // Read-only transaction: nothing durable happened.
        s.inTx = false;
        stats::bump(stats::Counter::txCommits);
        return;
    }
    // Staged log bytes (zerocached writer) must hit the media before
    // the data fence: see UndoRuntime::txCommit.
    sealLog(tid);
    persistIntentsAndAllocs(tid);
    flushDirty(tid);
    pool_.fence();
    persistIdle(tid);
    finishIntentsAfterCommit(tid);
    s.inTx = false;
}

salvage::ScanStats
ClobberRuntime::restoreSlot(unsigned tid)
{
    salvage::ScanStats st;
    const auto& entries = scanLog(tid, &st);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (it->targetOff == kMarkerOff)
            continue;  // bookkeeping record, not a memory image
        pool_.writeAt(it->targetOff, it->data, it->len);
        pool_.flush(pool_.at(it->targetOff), it->len);
    }
    pool_.fence();
    recoverIntents(tid, /* committed */ false);
    stats::bump(stats::Counter::recoveries);
    return st;
}

void
ClobberRuntime::reexecuteSlot(unsigned tid)
{
    TxDescriptor& d = desc(tid);
    // Bump the sequence number (keeping status=ongoing and the v_log
    // args) so the previous execution's clobber entries are invalid if
    // we crash again during re-execution.
    uint64_t seq = d.txSeq + 1;
    pool_.write(&d.txSeq, &seq, sizeof(seq));
    uint64_t sum = beginChecksum(tid);
    pool_.write(&d.beginSum, &sum, sizeof(sum));
    pool_.flush(&d.txSeq, sizeof(seq));
    pool_.persist(&d.beginSum, sizeof(sum));

    SlotState& s = slot(tid);
    s.reset();
    s.inTx = true;
    s.begunPersist = true;  // the v_log entry is already durable
    // The only surviving copy of the transaction's inputs is the
    // v_log; rehydrate the volatile blob from it.
    s.volatileArgs.assign(d.args, d.args + d.argLen);

    txn::Tx tx(*this, tid);
    txn::ArgReader r(argBlob(tid));
    // While the txfunc re-executes, any volatile out-pointers in its
    // argument blob are dangling (the original caller's stack is
    // gone); Tx::recovering() lets txfuncs skip writing them.
    recovering_ = true;
    try {
        txn::lookupTxFunc(d.fid)(tx, r);
    } catch (...) {
        recovering_ = false;
        throw;
    }
    recovering_ = false;
    txCommit(tid);
    stats::bump(stats::Counter::reexecutions);
}

void
ClobberRuntime::abortReexecution(unsigned tid, const char* why)
{
    // The partial re-execution wrote in place under a fresh txSeq with
    // its own clobber entries: restore those, revert its intents, and
    // abandon the transaction. Blind writes of the aborted txfunc may
    // survive — inherent to the clobber protocol, which is why the
    // abort is declared in the report rather than papered over.
    restoreSlot(tid);
    salvageResetSlot(tid);
    slot(tid).reset();
    txn::SlotRecovery sr;
    sr.tid = tid;
    sr.action = txn::SlotAction::salvageAborted;
    sr.note = std::string("re-execution aborted: ") + why;
    recordSlot(std::move(sr));
}

void
ClobberRuntime::declareRestoreAbort(unsigned tid,
                                    const salvage::ScanStats& st)
{
    // Damaged log — or an eliding writer, under which a lost trailing
    // clobber entry looks exactly like a clean log end while its
    // in-place write survived. Re-executing would feed the txfunc
    // those unrestored inputs and commit garbage on top; restore what
    // validated and declare the abort instead.
    salvageResetSlot(tid);
    txn::SlotRecovery sr;
    sr.tid = tid;
    sr.action = txn::SlotAction::salvageAborted;
    sr.entriesApplied = st.entries;
    sr.entriesDropped = st.droppedEntries;
    if (st.damaged()) {
        sr.note = st.sawPoison ? "clobber log poisoned"
                               : "clobber log corrupted mid-log";
    } else {
        sr.note = "zero-fence log writer: inputs not "
                  "provably restored, not re-executed";
    }
    recordSlot(std::move(sr));
}

void
ClobberRuntime::reexecuteGuarded(unsigned tid)
{
    try {
        reexecuteSlot(tid);
        txn::SlotRecovery sr;
        sr.tid = tid;
        sr.action = txn::SlotAction::reexecuted;
        recordSlot(std::move(sr));
    } catch (const nvm::MediaFaultError& e) {
        // A guarded input load hit a poisoned line mid-txfunc
        // (CrashInjected propagates: that is the torture harness
        // tearing the pool, not a media fault).
        abortReexecution(tid, e.what());
    } catch (const txn::LogOverflowError& e) {
        // The interrupted transaction crashed before its own
        // overflow point; the full re-execution hit it. Same
        // resolution as a voluntary abort: restore and abandon.
        abortReexecution(tid, e.what());
    } catch (const alloc::CorruptBlockError& e) {
        // Commit-time intent persist tripped on a block whose
        // header no longer validates; wall it off so the damage
        // cannot spread through the free list.
        heap_.quarantine(e.payloadOff() - sizeof(alloc::BlockHeader),
                         alloc::kGranule, alloc::kQuarCorruptHeader);
        if (report_ != nullptr) {
            report_->quarantinedBlocks++;
            report_->quarantinedBytes += alloc::kGranule;
        }
        abortReexecution(tid, e.what());
    }
}

void
ClobberRuntime::healOngoing(unsigned tid)
{
    salvage::ScanStats st = restoreSlot(tid);
    if (st.damaged() || logWriterElides()) {
        declareRestoreAbort(tid, st);
        return;
    }
    // Restore and re-execute back to back, one slot at a time: the
    // allocator's incremental scan serves the re-execution's
    // reservations, this slot's own reverted blocks are simply not
    // handed out until the final reconcile (the safe direction), and
    // holds pin every other live intent table's blocks. Other
    // interrupted slots cannot be disturbed: each crashed transaction
    // still held its locks, so their footprints are disjoint.
    resetVolatileSlot(tid);
    reexecuteGuarded(tid);
}

}  // namespace cnvm::rt
