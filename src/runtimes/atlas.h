/**
 * @file
 * Atlas-model runtime.
 *
 * HP's Atlas infers failure-atomic sections (FASEs) from lock
 * operations, undo-logs every store, and — because its weak concurrency
 * requirements let FASEs overlap — tracks dependencies *between* FASEs
 * so a log pruner can later find a consistent cut. The paper attributes
 * Atlas's large slowdown to exactly this extra persistence traffic and
 * bookkeeping (Sections 5.1/5.2).
 *
 * This model reproduces those costs mechanically:
 *  - undo logging identical to the PMDK model;
 *  - a lock-acquire marker at FASE begin and a lock-release marker
 *    at FASE end (each an entry write + flush, fenced by the next
 *    undo entry or the commit);
 *  - a cross-FASE dependency record appended to a *global* persistent
 *    ring under a global lock (a real scalability bottleneck in the
 *    logical-time model);
 *  - a periodic log-pruner pass that scans the dependency ring.
 */
#ifndef CNVM_RUNTIMES_ATLAS_H
#define CNVM_RUNTIMES_ATLAS_H

#include "runtimes/undo.h"
#include "sim/lock.h"

namespace cnvm::rt {

class AtlasRuntime : public UndoRuntime {
 public:
    AtlasRuntime(nvm::Pool& pool, alloc::PmAllocator& heap);

    const char* name() const override { return "atlas"; }
    txn::RuntimeKind kind() const override
    {
        return txn::RuntimeKind::atlas;
    }

    void txBegin(unsigned tid, txn::FuncId fid,
                 std::span<const uint8_t> args) override;
    void txCommit(unsigned tid) override;
    void store(unsigned tid, void* dst, const void* src,
               size_t n) override;

 private:
    static constexpr size_t kDepRingBytes = 4096;
    static constexpr size_t kDepRecordBytes = 32;
    static constexpr uint64_t kPruneInterval = 64;

    /** Persist a lock acquire/release record in the thread's log. */
    void appendLockRecord(unsigned tid, uint64_t code);

    /** Append a record to the global dependency ring. */
    void appendDepRecord(unsigned tid);

    /** The periodic pruner: scan the ring for a consistent cut. */
    void pruneLogs();

    uint64_t depRingOff_ = 0;
    size_t depIndex_ = 0;
    sim::SimMutex depSimLock_;
    std::mutex depRealLock_;
    uint64_t commitsSincePrune_ = 0;
};

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_ATLAS_H
