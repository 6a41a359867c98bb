/**
 * @file
 * Shared machinery for all failure-atomicity runtimes: slot/descriptor
 * management, self-validating log append/scan, dirty-line tracking for
 * commit-time write-back, and the allocation intent protocol.
 */
#ifndef CNVM_RUNTIMES_BASE_H
#define CNVM_RUNTIMES_BASE_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "alloc/pm_allocator.h"
#include "common/block_map.h"
#include "nvm/pool.h"
#include "runtimes/descriptor.h"
#include "runtimes/log_writer.h"
#include "runtimes/salvage.h"
#include "txn/runtime.h"

namespace cnvm::rt {

class RuntimeBase : public txn::Runtime {
 public:
    RuntimeBase(nvm::Pool& pool, alloc::PmAllocator& heap);

    nvm::Pool& pool() override { return pool_; }
    alloc::PmAllocator& heap() override { return heap_; }

    std::span<const uint8_t> argBlob(unsigned tid) const override;

    /**
     * Ablation knob: persist begin records eagerly at txBegin instead
     * of lazily before the first durable effect. Costs read-only
     * transactions two fences each (see bench/ablation_lazy_begin).
     */
    void setEagerBeginPersist(bool on) { eagerBegin_ = on; }

    /**
     * @name The undo family's transaction steps
     *
     * Begin stages a begin record without the v_log (clobber and iDO
     * persist it), commit is the in-place commit below, and a load is
     * a plain read. Redo overrides all three, no-log begin and
     * commit.
     */
    /// @{
    void txBegin(unsigned tid, txn::FuncId fid,
                 std::span<const uint8_t> args) override;
    /**
     * In-place commit: persist the intent table and the allocation
     * bits, write back every dirty line, fence, persist idle (the
     * commit point), then finish the frees. A transaction that never
     * persisted its begin record commits with no fence at all.
     */
    void txCommit(unsigned tid) override;
    void load(unsigned tid, void* dst, const void* src,
              size_t n) override;
    /// @}

    void initZero(unsigned tid, void* dst, size_t n) override;
    uint64_t alloc(unsigned tid, size_t n) override;
    void dealloc(unsigned tid, uint64_t payloadOff) override;
    void txAbort(unsigned tid) override;

    /**
     * @name Recovery — the triage/heal split every restart runs
     *
     * recoveryTriage() is the bounded pass: classify every slot from
     * its descriptor (salvage::triageSlot — no log replay, no bitmap
     * scan), collect the heap ranges live intent tables pin, and
     * reset volatile slot state. It writes nothing a re-run could
     * disagree with — the index rebuilds identically from the same
     * media, so a crash anywhere inside triage (or between triage and
     * the last heal) just means triage runs again. healSlot() repairs
     * one slot: it re-derives the slot's condition from media (the
     * triage class is advisory), so healing twice — or healing after
     * a crash that landed mid-heal — is idempotent. healHeap()
     * finishes the allocator's bitmap scan, once after all entries
     * heal.
     */
    /// @{
    txn::RecoveryIndex recoveryTriage() override;
    txn::RecoveryReport healSlot(const txn::IndexEntry& e) override;
    txn::RecoveryReport healHeap() override;
    /// @}

 protected:
    /** Volatile per-slot transaction state. */
    struct SlotState {
        bool inTx = false;
        /** begin record (and v_log) persisted yet? (lazy begin) */
        bool begunPersist = false;
        txn::FuncId pendingFid = 0;
        bool wantArgsPersist = false;
        std::vector<uint8_t> volatileArgs;
        /**
         * Cache lines to write back at the next flushDirty, in
         * first-store order, so write-back costs O(lines dirtied).
         * dirtySeen marks each listed line so that a revisit does not
         * append it twice; it starts small and grows on demand.
         */
        std::vector<uint64_t> dirtyLines;
        BlockMap dirtySeen{64};
        /**
         * Unified per-block transaction state (READ / WRITTEN / LOGGED
         * / REGION_READ / REGION_WRITTEN), one probe per block where
         * the old readSet/writeSet/loggedBlocks/region sets cost up to
         * four. Bits are only ever set during a transaction (clear()
         * at reset, clearRegionBits() at iDO region boundaries), which
         * is what makes the access-run cache below sound. Like
         * dirtySeen it starts small and grows to the largest
         * transaction the slot has run, so a slot costs the same to
         * build however many a runtime has.
         */
        BlockMap blocks{64};
        /**
         * Access-run memoization: inclusive block ranges known to be
         * fully processed by the owning runtime's load (loadRun) or
         * store (storeRun) bookkeeping, so sequential memcpy-style
         * access skips the hash probes entirely. The exact invariant
         * is protocol-specific (clobber: storeRun blocks are WRITTEN;
         * undo: LOGGED; iDO adds the region bits) but always monotone
         * under bit-setting, so runs stay valid until resetTx() or a
         * region boundary resets them. Empty when lo > hi.
         */
        uint64_t loadRunLo = 1, loadRunHi = 0;
        uint64_t storeRunLo = 1, storeRunHi = 0;
        /** last cache line writeDirty recorded (same-line memo) */
        uint64_t lastDirtyLine = ~0ULL;
        /** allocation actions (payloadOff, isFree) */
        std::vector<std::pair<uint64_t, bool>> actions;
        /** reusable buffer for scanLog (recovery passes) */
        std::vector<ScannedEntry> scanScratch;
        /** bytes used in the slot's log area */
        size_t logTail = 0;
        /** the intent table persistIntentsAndAllocs builds from
         *  actions, kept so a commit reuses its capacity */
        std::vector<AllocIntent> intentScratch;

        bool
        inLoadRun(uint64_t lo, uint64_t hi) const
        {
            return loadRunLo <= lo && hi <= loadRunHi;
        }
        bool
        inStoreRun(uint64_t lo, uint64_t hi) const
        {
            return storeRunLo <= lo && hi <= storeRunHi;
        }

        /** Extend a run if [lo,hi] overlaps/adjoins it, else replace. */
        static void
        noteRun(uint64_t& runLo, uint64_t& runHi, uint64_t lo,
                uint64_t hi)
        {
            if (runLo <= runHi && lo <= runHi + 1 && runLo <= hi + 1) {
                runLo = runLo < lo ? runLo : lo;
                runHi = runHi > hi ? runHi : hi;
            } else {
                runLo = lo;
                runHi = hi;
            }
        }
        void
        noteLoadRun(uint64_t lo, uint64_t hi)
        {
            noteRun(loadRunLo, loadRunHi, lo, hi);
        }
        void
        noteStoreRun(uint64_t lo, uint64_t hi)
        {
            noteRun(storeRunLo, storeRunHi, lo, hi);
        }

        void
        resetRuns()
        {
            loadRunLo = storeRunLo = 1;
            loadRunHi = storeRunHi = 0;
        }

        void
        resetTx()
        {
            begunPersist = false;
            pendingFid = 0;
            wantArgsPersist = false;
            dirtyLines.clear();
            dirtySeen.clear();
            blocks.clear();
            resetRuns();
            lastDirtyLine = ~0ULL;
            actions.clear();
            logTail = 0;
        }

        /** Back to a new slot's state, in place: every buffer keeps
         *  its capacity, so triage and heals allocate nothing. */
        void
        reset()
        {
            inTx = false;
            volatileArgs.clear();
            scanScratch.clear();
            resetTx();
        }
    };

    static constexpr uint64_t kBlock = 8;

    TxDescriptor& desc(unsigned tid);
    const TxDescriptor& desc(unsigned tid) const;
    uint8_t* logArea(unsigned tid);
    size_t logCapacity() const;
    SlotState& slot(unsigned tid);

    /** Interposed in-place write: pool write + dirty-line tracking. */
    void writeDirty(unsigned tid, void* dst, const void* src, size_t n);

    /** clwb every dirty line (no fence), then forget them all. */
    void flushDirty(unsigned tid);

    /**
     * Append a self-validating log entry carrying `len` bytes of
     * `payload` attributed to `targetOff`: write it to the slot's log
     * area, flush it, and fence iff `fence == LogFence::required`.
     * Throws txn::LogOverflowError when the entry does not fit the
     * slot's log area (nothing is written in that case).
     */
    void appendLogEntry(unsigned tid, uint64_t targetOff,
                        const void* payload, uint32_t len,
                        LogFence fence);

    /**
     * All valid entries of the slot's current transaction, in order,
     * salvaged across damaged stretches (see salvage::scanLogArea).
     * `stats` (optional) receives what the scan observed — protocols
     * use stats->damaged() to decide between ordinary replay and a
     * salvage abort. The returned vector is the slot's scratch
     * buffer: valid until the next scanLog() call on the same slot.
     */
    const std::vector<ScannedEntry>&
    scanLog(unsigned tid, salvage::ScanStats* stats = nullptr);

    /**
     * Persist the begin record. Writes status/txSeq (+fid/args when
     * `persistArgs`), flushes, fences. This is the v_log write for
     * recovery-via-resumption runtimes.
     */
    void persistBegin(unsigned tid, txn::FuncId fid,
                      std::span<const uint8_t> args, bool persistArgs);

    /**
     * Lazy begin: stage the begin record volatilely; ensureBegun()
     * persists it before the transaction's first durable effect. A
     * transaction that never stores, logs, or allocates therefore
     * costs no fences at all (read-only fast path — PMDK does not
     * transact reads, and Clobber-NVM's v_log only has to be durable
     * before the first store could tear anything).
     */
    void stageBegin(unsigned tid, txn::FuncId fid,
                    std::span<const uint8_t> args, bool persistArgs);
    void ensureBegun(unsigned tid);

    /** Hook invoked when a staged begin actually persists. */
    virtual void beganPersistently(unsigned /* tid */) {}

    /**
     * @name Allocation intent protocol
     *
     * pmalloc/pfree follow PMDK's redo-style scheme, with frees split
     * from allocations so every crash window is unambiguous:
     *
     *  1. persistIntentsAndAllocs() — before the transaction's data
     *     fence: persist the intent table (alloc + free actions,
     *     tagged with the txSeq), fence, then set+flush the bitmap
     *     bits of the allocations only;
     *  2. transaction commit point (status change);
     *  3. finishIntentsAfterCommit() — clear+flush the bitmap bits of
     *     the frees, then persist intentCount = 0.
     *
     * Rollback (crash before the commit point) reverts the alloc bits
     * and never applies the frees; completion (crash after) re-applies
     * frees idempotently. recoverIntents() implements both.
     */
    /// @{
    void persistIntentsAndAllocs(unsigned tid);
    void finishIntentsAfterCommit(unsigned tid);

    /**
     * Repair the persistent intent table of slot `tid`.
     * @param committed true if the owning transaction reached its
     *        commit point (finish the frees), false otherwise (revert
     *        the allocations).
     */
    void recoverIntents(unsigned tid, bool committed);

    /** Redo replay: force the table's alloc bits set (idempotent). */
    void reapplyAllocIntents(unsigned tid);
    /// @}

    /** Write status=idle, flush, fence. */
    void persistIdle(unsigned tid);

    /**
     * Roll the slot's logged images back: scan its log, write each
     * image back in reverse order (skipping kMarkerOff records) and
     * flush it, fence, then revert a live intent table. This is PMDK's
     * roll-back and Clobber-NVM's restore of the clobbered inputs
     * alike: both logs hold the pre-images of what the transaction
     * overwrote. `stats` (optional) receives what the scan observed.
     * @return the number of images written back.
     */
    uint64_t rollBackLog(unsigned tid, salvage::ScanStats* stats);

    /**
     * @name Salvage support
     *
     * healSlot() and healHeap() open a RecoverySession, which exposes
     * the in-progress txn::RecoveryReport through report_ (null
     * outside recovery, so the hot path never touches it) and
     * snapshots the fault model's counters to attribute poisoned
     * reads and retries to this pass. The session is exception-safe:
     * a CrashInjected thrown mid-heal (crash-during-recovery torture)
     * unwinds it cleanly and the next heal starts a fresh report.
     */
    /// @{
    class RecoverySession {
     public:
        explicit RecoverySession(RuntimeBase& rt);
        ~RecoverySession();

        txn::RecoveryReport& report() { return report_; }
        /** Finalize (fill media-counter deltas) and move out. */
        txn::RecoveryReport take();

     private:
        RuntimeBase& rt_;
        txn::RecoveryReport report_;
        uint64_t poisonReads0_ = 0;
        uint64_t retries0_ = 0;
    };

    /** Record a per-slot salvage outcome (no-op outside recovery). */
    void recordSlot(txn::SlotRecovery s);

    /**
     * Rewrite the slot's descriptor as clean idle with txSeq bumped
     * (so surviving log entries can never validate again). Shared by
     * the salvage path and the voluntary abort path; counts neither
     * a commit nor a salvage abort.
     */
    void abandonSlot(unsigned tid);

    /**
     * Abandon the slot's transaction because some of its lines are
     * poisoned, flipped or unparseable, and say so: abandonSlot(),
     * count a salvage abort, and record the slot as salvage-aborted
     * with `note` and the entry counts of its last log scan.
     */
    void declareSalvageAbort(unsigned tid, std::string note,
                             uint64_t applied = 0, uint64_t dropped = 0);

    /**
     * Common heal preamble for one slot. False means the descriptor
     * itself is unreadable: the slot has been declared
     * salvage-aborted (the descriptor rewrite heals the poisoned
     * lines), and the caller must skip it.
     */
    bool slotRecoverable(unsigned tid);

    /**
     * Media-aware recoverIntents for a slot with no interrupted
     * transaction: completes (or reverts, per `committed`) a live
     * table, or — if the table is poisoned/corrupt — records it lost
     * and resets the slot.
     */
    void recoverIdleIntents(unsigned tid, bool committed);

    /**
     * @name Per-slot recovery hooks
     *
     * recoveryTriage() and healSlot() run each protocol's logic
     * through these virtuals.
     */
    /// @{
    /** Drop the slot's volatile transaction state (redo also clears
     *  its write map). */
    virtual void resetVolatileSlot(unsigned tid);

    /** Per-slot triage hook (redo skips clean slots' txSeq here). */
    virtual void noteTriaged(unsigned /* tid */, txn::SlotClass) {}

    /** End-of-triage hook (redo fences its sequence skips). */
    virtual void triageFinish() {}

    /**
     * Heal one slot: vet the descriptor (salvage-reset if unreadable)
     * and dispatch to healOngoing / healCommitting / healIdle from
     * the slot's *current* media state. The class is advisory.
     */
    virtual void healOneSlot(unsigned tid, txn::SlotClass cls);

    /** Repair an interrupted (status=ongoing) transaction. */
    virtual void healOngoing(unsigned /* tid */) {}

    /** Roll a committing slot forward (redo). The default treats it
     *  like an idle slot — no other protocol persists that status. */
    virtual void
    healCommitting(unsigned tid)
    {
        healIdle(tid);
    }

    /** Repair a slot with no interrupted transaction: finish (or, per
     *  protocol, revert) a live alloc-intent table. */
    virtual void
    healIdle(unsigned tid)
    {
        recoverIdleIntents(tid, /* committed */ true);
    }
    /// @}

    /** Active recovery report; null outside a heal. */
    txn::RecoveryReport* report_ = nullptr;
    /// @}

    /** Checksum of the slot's current begin record. */
    uint64_t beginChecksum(unsigned tid) const;

    /** Inclusive 8-byte block range covering [p, p+n). @pre n > 0. */
    struct BlockRange {
        uint64_t first, last;
    };
    BlockRange
    blockRangeOf(const void* p, size_t n) const
    {
        uint64_t off = pool_.offsetOf(p);
        return {off / kBlock, (off + n - 1) / kBlock};
    }

    nvm::Pool& pool_;
    alloc::PmAllocator& heap_;
    std::vector<SlotState> slots_;
    bool eagerBegin_ = false;
};

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_BASE_H
