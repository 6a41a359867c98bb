/**
 * @file
 * Clobber-NVM: the paper's runtime.
 *
 * Logging strategy (Section 3): undo-log *only* transaction inputs that
 * the transaction itself overwrites ("clobber writes"), persist the
 * transaction's volatile inputs (function id + argument blob) in a
 * v_log at begin, and recover interrupted transactions by restoring the
 * clobbered inputs and re-executing the txfunc from its start. Like
 * every protocol, recovery heals one slot at a time (healOngoing:
 * restore that slot, then re-execute it), whether the restart drains
 * the recovery session inline or lazily.
 *
 * Clobber detection here is the dynamic equivalent of the compiler
 * pass: per-transaction read/write sets at 8-byte granularity. A store
 * clobbers an input iff it targets a block that was read before being
 * written in this transaction. Two policies model the paper's
 * Section 5.9 comparison:
 *
 *  - refined:      log iff block ∈ readSet ∧ block ∉ writeSet — the
 *                  post-refinement pass (no redundant logging of
 *                  already-clobbered inputs, e.g. later loop
 *                  iterations);
 *  - conservative: log iff block ∈ readSet — every execution of a
 *                  candidate clobber-write site logs, as the
 *                  unrefined conservative pass would instrument.
 */
#ifndef CNVM_RUNTIMES_CLOBBER_H
#define CNVM_RUNTIMES_CLOBBER_H

#include "runtimes/base.h"

namespace cnvm::rt {

enum class ClobberPolicy {
    refined,
    conservative,
};

class ClobberRuntime : public RuntimeBase {
 public:
    ClobberRuntime(nvm::Pool& pool, alloc::PmAllocator& heap,
                   ClobberPolicy policy = ClobberPolicy::refined)
        : RuntimeBase(pool, heap), policy_(policy) {}

    const char* name() const override
    {
        return policy_ == ClobberPolicy::refined ? "clobber"
                                                 : "clobber-cons";
    }
    txn::RuntimeKind kind() const override
    {
        return txn::RuntimeKind::clobber;
    }

    void txBegin(unsigned tid, txn::FuncId fid,
                 std::span<const uint8_t> args) override;
    void store(unsigned tid, void* dst, const void* src,
               size_t n) override;
    void load(unsigned tid, void* dst, const void* src,
              size_t n) override;
    bool recovering() const override { return recovering_; }

    ClobberPolicy policy() const { return policy_; }

    /**
     * Knobs for the Figure 7 breakdown: selectively disable the v_log
     * or the clobber_log (the resulting runtime is not failure-atomic;
     * measurement only).
     */
    void setVlogEnabled(bool on) { vlogEnabled_ = on; }
    void setClobberLogEnabled(bool on) { clobberLogEnabled_ = on; }

 protected:
    /**
     * Append the widened block-aligned clobber entry for a store to
     * [dst, dst+n) and bump the logging counters (no-op when the
     * clobber_log is disabled). Shared with the iDO runtime's store
     * path.
     */
    void appendClobberEntry(unsigned tid, void* dst, size_t n);

    /**
     * Interrupted transaction: restore its clobbered inputs (roll the
     * clobber_log back), then — unless the log was damaged —
     * re-execute the txfunc to completion on the calling thread.
     * Every restart heals slot by slot, so there is no heap rebuild
     * between restore and re-execution: the allocator's incremental
     * scan is already live.
     */
    void healOngoing(unsigned tid) override;

    ClobberPolicy policy_;
    bool clobberLogEnabled_ = true;
    /**
     * True while a txfunc re-executes during recovery. Guarded loads
     * (media faults) are only armed in this window; shared with the
     * iDO runtime's load path. Thread-local: a background healer's
     * re-execution must not flip foreground transactions on other
     * threads into recovery semantics (their guarded loads would arm
     * and their txfuncs would skip volatile out-pointers).
     */
    static thread_local bool recovering_;

 private:
    /** Re-execute the interrupted txfunc (after its restore). */
    void reexecuteSlot(unsigned tid);
    /** Roll back a partially re-executed slot and abandon it. */
    void abortReexecution(unsigned tid, const char* why);
    /** reexecuteSlot inside the recovery catch set (media fault,
     *  overflow, corrupt block -> abort + declare). */
    void reexecuteGuarded(unsigned tid);

    bool vlogEnabled_ = true;
};

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_CLOBBER_H
