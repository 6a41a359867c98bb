/**
 * @file
 * The recovery session: the one coordinator every restart runs.
 *
 * Constructing a LazyRecovery arms it: the runtime's bounded triage
 * pass builds the RecoveryIndex, the allocator opens its session
 * (PmAllocator::beginSession: the scan a fresh allocator ran or armed
 * carries over; a heap that outlived a crash starts over), and the
 * triaged hold ranges are pinned. Each pending slot then heals
 * exactly once, and the heap's reconciliation (Runtime::healHeap,
 * which finishes the scan) runs once, after every entry has healed.
 * Runtime::recover() — full recovery — drains the session inline on
 * the calling thread before returning. Engine::recover(lazy) publishes
 * it instead: transactions are admitted immediately and a pending slot
 * heals on *first touch* (a transaction wants the slot:
 * Engine::admitSlot blocks until its entry heals) or from the
 * background salvage thread.
 *
 * Concurrency contract:
 *  - each entry carries a once-latch (kPending -> kHealing -> kHealed);
 *    losers of the latch race wait on the winner;
 *  - the actual Runtime::healSlot / healHeap calls are additionally
 *    serialized through one heal mutex — the runtime's RecoverySession
 *    machinery (the report_ pointer) is not reentrant;
 *  - a heal that throws (the torture harness's CrashInjected) returns
 *    the entry to kPending: healing is idempotent, so the retry — or a
 *    fresh triage after a re-tear — simply runs it again;
 *  - per-entry reports merge into one cumulative RecoveryReport
 *    (RecoveryReport::merge), and the owning slot's allocator holds
 *    are released the moment its entry heals.
 */
#ifndef CNVM_TXN_LAZY_RECOVERY_H
#define CNVM_TXN_LAZY_RECOVERY_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "txn/recovery_index.h"
#include "txn/recovery_report.h"
#include "txn/runtime.h"

namespace cnvm::txn {

class LazyRecovery {
 public:
    /**
     * Arm a session over `rt`'s pool: triage, then
     * PmAllocator::beginSession(), then register the triaged holds
     * (in that order — a session that starts over discards all
     * volatile allocator state, holds included). Does not start the
     * healer.
     */
    explicit LazyRecovery(Runtime& rt);

    /** Stops and joins the background healer. */
    ~LazyRecovery();

    LazyRecovery(const LazyRecovery&) = delete;
    LazyRecovery& operator=(const LazyRecovery&) = delete;

    /**
     * First-touch gate: block until slot `tid`'s pending entry (if it
     * has one) is healed, healing it on the calling thread when the
     * once-latch is won. Cheap for slots without an entry (no lock).
     * Rethrows the heal's exception (entry returns to pending).
     */
    void admit(unsigned tid);

    /**
     * Heal everything still pending — entries, then the heap — on the
     * calling thread, waiting out concurrent healers. On return the
     * session is fully healed (unless a heal threw, which propagates).
     */
    void drain();

    /** Spawn the background salvage thread (at most one). */
    void startHealer();

    /** Cooperatively stop and join the healer (idempotent). */
    void stopHealer();

    /** All entries healed and the heap reconciled? */
    bool done() const;

    /** Heal work items (entries + heap pass) not yet done / done. */
    uint64_t pendingCount() const;
    uint64_t healedCount() const;

    /** Did the background healer die on an exception? (drain() can
     *  still finish the job.) */
    bool healerDied() const;

    /** Snapshot of the cumulative (merged) report so far;
     *  slotsScanned is the pool's maxThreads from construction on. */
    RecoveryReport report() const;

 private:
    enum State : uint8_t { kPending = 0, kHealing = 1, kHealed = 2 };

    /** Heal entry `i`, waiting out a concurrent healer. `lk` holds
     *  mu_ on entry and on exit (released across the heal itself). */
    void healEntryLocked(size_t i, std::unique_lock<std::mutex>& lk);

    /** Run the heap pass if pending (same locking contract). */
    void healHeapLocked(std::unique_lock<std::mutex>& lk);

    void healerLoop();

    Runtime& rt_;
    RecoveryIndex idx_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<uint8_t> state_;     ///< per-entry once-latch
    std::vector<int32_t> byTid_;     ///< tid -> entry index (-1: none)
    size_t healedEntries_ = 0;
    bool heapHealing_ = false;
    bool heapHealed_ = false;
    RecoveryReport report_;

    /** Serializes the actual Runtime heal calls (report_ pointer). */
    std::mutex healMu_;

    std::thread healer_;
    bool healerStarted_ = false;
    bool stop_ = false;
    bool healerDied_ = false;
};

}  // namespace cnvm::txn

#endif  // CNVM_TXN_LAZY_RECOVERY_H
