/**
 * @file
 * The failure-atomicity runtime interface.
 *
 * Every logging protocol in the repository — no-log, PMDK-style hybrid
 * undo, Mnemosyne-style redo, Clobber-NVM, Atlas, iDO — implements this
 * interface. Data structures and applications are written once against
 * it; swapping the runtime swaps the protocol (this is how all of the
 * paper's comparison figures are produced).
 *
 * store()/load() are the interposition points the Clobber-NVM compiler
 * would insert at every memory access inside a transaction; alloc()/
 * dealloc() are the pmalloc callbacks; txBegin()/txCommit() are the
 * txbegin/txend macros.
 *
 * Recovery has one path. A protocol implements only its pieces —
 * recoveryTriage() classifies the slots, healSlot() repairs one,
 * healHeap() reconciles the allocator — and every restart runs them
 * through a txn::LazyRecovery session: recover() (and
 * Engine::recover in full mode) drains that session inline, lazy
 * mode publishes it and heals on first touch or in the background.
 */
#ifndef CNVM_TXN_RUNTIME_H
#define CNVM_TXN_RUNTIME_H

#include <cstdint>
#include <span>
#include <stdexcept>

#include "txn/recovery_index.h"
#include "txn/recovery_report.h"

namespace cnvm::alloc {
class PmAllocator;
}
namespace cnvm::nvm {
class Pool;
}

namespace cnvm::txn {

/** Stable identifier of a registered transaction function. */
using FuncId = uint32_t;

/**
 * Thrown by a runtime's log append when the transaction outgrows its
 * per-thread log area. Recoverable: txn::run catches it, aborts just
 * the offending transaction through Runtime::txAbort (rolling back
 * its in-place writes and releasing its reservations), and rethrows
 * so the caller learns the transaction did not happen. The slot is
 * reusable immediately afterwards.
 */
class LogOverflowError : public std::runtime_error {
 public:
    LogOverflowError(size_t needBytes, size_t capacityBytes)
        : std::runtime_error(
              "transaction log overflow: transaction too large for "
              "the per-thread log area"),
          need_(needBytes), capacity_(capacityBytes)
    {
    }

    /** Log bytes the transaction would have needed. */
    size_t need() const { return need_; }
    /** The slot's log-area capacity. */
    size_t capacity() const { return capacity_; }

 private:
    size_t need_;
    size_t capacity_;
};

/** Stable identifiers recorded in the pool header. */
enum class RuntimeKind : uint32_t {
    noLog = 1,
    undo = 2,       ///< PMDK model
    redo = 3,       ///< Mnemosyne model
    clobber = 4,
    atlas = 5,
    ido = 6,
};

class Runtime {
 public:
    virtual ~Runtime() = default;

    virtual const char* name() const = 0;
    virtual RuntimeKind kind() const = 0;
    virtual nvm::Pool& pool() = 0;
    virtual alloc::PmAllocator& heap() = 0;

    /**
     * Start a transaction on slot `tid`. `args` is the serialized
     * argument blob; recovery-via-resumption runtimes persist it
     * (the v_log), roll-back runtimes keep it volatile.
     */
    virtual void txBegin(unsigned tid, FuncId fid,
                         std::span<const uint8_t> args) = 0;

    /** Commit the transaction on slot `tid`. */
    virtual void txCommit(unsigned tid) = 0;

    /**
     * Abort the uncommitted transaction on slot `tid`: undo its
     * in-place writes (to the protocol's ability — clobber-family
     * runtimes cannot revert blind stores to pre-existing blocks,
     * the same caveat their recovery documents), release its
     * allocation reservations, and return the slot to idle. No-op
     * when no transaction is in flight. Called by txn::run on
     * LogOverflowError; not a general user-facing abort API.
     */
    virtual void txAbort(unsigned /* tid */) {}

    /** The argument blob the txfunc should read (see args.h). */
    virtual std::span<const uint8_t> argBlob(unsigned tid) const = 0;

    /** Interposed store of `n` bytes to NVM address `dst`. */
    virtual void store(unsigned tid, void* dst, const void* src,
                       size_t n) = 0;

    /** Interposed load of `n` bytes from NVM address `src`. */
    virtual void load(unsigned tid, void* dst, const void* src,
                      size_t n) = 0;

    /**
     * Zero-initialize freshly allocated memory. Semantically the
     * allocator's TX_ZNEW zeroing: it is not undo-logged (the memory
     * is not a transaction input) but still reaches the cache model
     * (and, for redo, the write set).
     */
    virtual void initZero(unsigned tid, void* dst, size_t n) = 0;

    /** Transactional pmalloc. @return payload pool offset. */
    virtual uint64_t alloc(unsigned tid, size_t n) = 0;

    /** Transactional free (applied at commit). */
    virtual void dealloc(unsigned tid, uint64_t payloadOff) = 0;

    /**
     * Notification that the transaction acquired or released an inner
     * lock. Only Atlas (which infers and orders FASEs from lock
     * operations) persists anything here.
     */
    virtual void onLock(unsigned /* tid */) {}

    /**
     * Repair the pool after a crash: roll back or re-execute every
     * interrupted transaction, then finish the allocator's scan.
     * This is lazy recovery run to completion on the calling thread —
     * a txn::LazyRecovery session (triage, arm the allocator, pin the
     * holds) drained inline: one healSlot() per pending slot, then
     * one healHeap(). Corrupt media is salvaged, not aborted on:
     * damaged log entries are dropped with protocol-correct semantics
     * and poisoned allocator blocks quarantined. The returned report
     * records every salvage action (all existing callers may ignore
     * it; a clean crash on healthy media yields a report with
     * clean() == true). Defined in lazy_recovery.cc.
     */
    RecoveryReport recover();

    /**
     * Bounded triage pass: scan the per-slot descriptors just enough
     * to classify each slot and collect the heap ranges that must
     * stay pinned until their slot heals. Idempotent — interrupt it
     * anywhere and a re-run rebuilds the identical index from the
     * same on-media state.
     */
    virtual RecoveryIndex recoveryTriage() = 0;

    /**
     * Heal one triaged slot: roll back, roll forward, or re-execute
     * exactly that slot, salvaging damage. Re-derives the slot's
     * state from media (the entry's class is advisory), so healing a
     * slot twice, or healing after a crash that landed mid-heal, is
     * idempotent.
     */
    virtual RecoveryReport healSlot(const IndexEntry& entry) = 0;

    /**
     * Final heap reconciliation: the allocator's bitmap scan run to
     * its end (quarantine audit included; PmAllocator::finishScan),
     * once after every index entry has healed. Safe to run while
     * foreground transactions are in flight — live reservations are
     * preserved.
     */
    virtual RecoveryReport healHeap() = 0;

    /**
     * True while a heal is re-executing an interrupted txfunc on the
     * calling thread (recovery-via-resumption runtimes only).
     * Volatile out-pointer arguments baked into the v_log point into
     * stack frames of the crashed process; txfuncs must not
     * dereference them when this is set (the caller that supplied
     * them no longer exists).
     */
    virtual bool recovering() const { return false; }
};

}  // namespace cnvm::txn

#endif  // CNVM_TXN_RUNTIME_H
