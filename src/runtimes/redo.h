/**
 * @file
 * Mnemosyne-model redo runtime.
 *
 * Stores are appended to a persistent redo log (flushed lazily, no
 * per-store fence) and buffered in a volatile write set; loads are
 * interposed to read through the write set (the "longer read path" the
 * paper attributes Mnemosyne's slow searches to). Commit needs a small,
 * constant number of fences regardless of transaction size: drain log
 * flushes, persist the commit record, write back, mark idle.
 */
#ifndef CNVM_RUNTIMES_REDO_H
#define CNVM_RUNTIMES_REDO_H

#include <unordered_map>

#include "runtimes/base.h"

namespace cnvm::rt {

class RedoRuntime : public RuntimeBase {
 public:
    RedoRuntime(nvm::Pool& pool, alloc::PmAllocator& heap);

    const char* name() const override { return "mnemosyne"; }
    txn::RuntimeKind kind() const override
    {
        return txn::RuntimeKind::redo;
    }

    void txBegin(unsigned tid, txn::FuncId fid,
                 std::span<const uint8_t> args) override;
    void txCommit(unsigned tid) override;
    void store(unsigned tid, void* dst, const void* src,
               size_t n) override;
    void initZero(unsigned tid, void* dst, size_t n) override;
    void load(unsigned tid, void* dst, const void* src,
              size_t n) override;
    /** Abort = drop the volatile write set (nothing was in place). */
    void txAbort(unsigned tid) override;

 protected:
    /** Also drops the slot's volatile write set. */
    void resetVolatileSlot(unsigned tid) override;

    /**
     * Redo begins do not fence the sequence-number write, so a torn
     * crash can revert txSeq to its previous durable value and the
     * next transaction would *reuse* the crashed transaction's
     * sequence number — making that transaction's stale log-tail
     * entries validate during a later replay. Every recovery
     * therefore skips each slot's sequence well past anything that
     * can be in flight: clean slots during triage (fenced together
     * by triageFinish), pending slots as part of their heal (fenced
     * per slot — each must be protected before it is re-admitted).
     */
    void noteTriaged(unsigned tid, txn::SlotClass cls) override;
    void triageFinish() override;
    void healOneSlot(unsigned tid, txn::SlotClass cls) override;

    /** Committing slot: replay the redo log forward. */
    void healCommitting(unsigned tid) override;

    /** No commit record: the transaction is discarded; revert any
     *  persisted allocation intents. */
    void healIdle(unsigned tid) override
    {
        recoverIdleIntents(tid, /* committed */ false);
    }

 private:
    /** Effective 8-byte word at `wordOff` (write set wins over home). */
    uint64_t effectiveWord(unsigned tid, uint64_t wordOff) const;

    /** Bump the slot's txSeq by 16 (write + flush; caller fences). */
    void skipSeq(unsigned tid);

    /** Per-slot volatile write set: word offset -> buffered value. */
    std::vector<std::unordered_map<uint64_t, uint64_t>> writeMaps_;
};

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_REDO_H
