/**
 * @file
 * Engine: the runtime plus thread-slot assignment — what data-structure
 * wrappers hold onto.
 *
 * Slot assignment: under the logical-thread executor the slot is the
 * logical thread id; under real OS threads it is a thread-local id set
 * with setThreadTid() (defaults to 0 for single-threaded callers).
 * Slot ids index the pool's per-thread log areas, so an out-of-range
 * id would silently scribble over another slot's log: setThreadTid
 * validates against the ambient pool and throws SlotRangeError, and
 * Engine::bindThisThread validates against the engine's own pool
 * (authoritative in multi-pool processes).
 */
#ifndef CNVM_TXN_ENGINE_H
#define CNVM_TXN_ENGINE_H

#include <memory>

#include "common/error.h"
#include "txn/runtime.h"

namespace cnvm::txn {

class LazyRecovery;

/**
 * A thread tried to bind a runtime slot the pool does not have.
 * Typed (rather than a CNVM_CHECK abort) so servers can refuse a
 * misconfigured worker count without dying.
 */
class SlotRangeError : public FatalError {
 public:
    SlotRangeError(unsigned tid, unsigned slots)
        : FatalError(strprintf(
              "thread slot %u out of range: the pool has %u runtime "
              "slots (PoolConfig::maxThreads)",
              tid, slots)),
          tid_(tid), slots_(slots)
    {
    }

    unsigned tid() const { return tid_; }
    unsigned slots() const { return slots_; }

 private:
    unsigned tid_;
    unsigned slots_;
};

/**
 * Assign the calling OS thread's runtime slot (real-thread mode).
 * @throws SlotRangeError if a pool is current and `tid` is not a
 *         valid slot of it.
 */
void setThreadTid(unsigned tid);

/** The calling context's runtime slot. */
unsigned currentTid();

/**
 * Hook notified after every txCommit issued through txn::run. The
 * durability validator (src/analysis/durability.h) implements this to
 * audit the cache-model state at each commit point; when no observer
 * is installed the commit path pays one predictable null check.
 */
class CommitObserver {
 public:
    virtual ~CommitObserver() = default;
    virtual void afterCommit(unsigned tid) = 0;
};

struct Engine {
    explicit Engine(Runtime& runtime, CommitObserver* obs = nullptr)
        : rt(runtime), commitObserver(obs) {}

    Runtime& rt;
    CommitObserver* commitObserver = nullptr;

    /** Result of the most recent recover() issued through this engine
     *  (default-constructed until one runs). */
    RecoveryReport lastRecovery;

    /**
     * Run recovery and keep its report in lastRecovery. The mode comes
     * from CNVM_RECOVERY (full unless set to "lazy"); see the
     * two-argument overload for what lazy returns.
     */
    RecoveryReport
    recover()
    {
        return recover(recoveryModeFromEnv(), true);
    }

    /**
     * Run recovery in `mode`. Both modes build the same recovery
     * session (LazyRecovery: the bounded triage pass, the allocator's
     * session opened over its scan, triaged hold ranges pinned).
     *
     * Full mode is Runtime::recover(): the session drained inline, so
     * every pending slot and the heap have healed on return.
     *
     * Lazy mode publishes the session and returns immediately —
     * transactions are admitted from that moment on.
     * Pending slots heal on first touch (admitSlot) or from the
     * background salvage thread (`backgroundHealer`; tests that want
     * deterministic heal ordering pass false and drive admitSlot /
     * finishRecovery themselves). The returned report covers only the
     * triage pass; the cumulative report accretes in the session and
     * lands in lastRecovery at finishRecovery().
     */
    RecoveryReport recover(RecoveryMode mode,
                           bool backgroundHealer = true);

    /**
     * First-touch admission gate, called by txn::run before every
     * txBegin (and by server workers before serving). A single
     * pointer test outside recovery; during lazy recovery it blocks
     * until the slot's pending entry (if any) has healed.
     */
    void
    admitSlot(unsigned tid)
    {
        if (lazy_) [[unlikely]]
            admitSlotSlow(tid);
    }

    /**
     * Complete an in-flight lazy recovery: stop the healer, heal
     * everything still pending on the calling thread, fold the
     * cumulative report into lastRecovery, and end the session.
     * Caller must quiesce foreground transactions first (the session
     * pointer is cleared without synchronization). No-op when no lazy
     * session is active.
     */
    RecoveryReport finishRecovery();

    /**
     * Heal everything still pending on the calling thread without
     * ending the session (no quiesce needed: the session pointer is
     * not touched, so concurrent admitSlot calls stay safe). Used
     * when the background healer died mid-recovery.
     */
    void drainRecovery();

    /** Is a lazy session active with work still pending? */
    bool recoveryActive() const;

    /** Heal work items (pending slots + heap pass) not yet / already
     *  healed in the active lazy session (0 / 0 when none). */
    uint64_t recoveryPending() const;
    uint64_t recoveryHealed() const;

    /** Did the active session's background healer die? */
    bool recoveryHealerDied() const;

    /** Cumulative report so far: the active session's report, else
     *  lastRecovery. */
    RecoveryReport recoveryReport() const;

    unsigned tid() const { return currentTid(); }

    /**
     * Bind the calling OS thread to slot `tid`, validated against
     * THIS engine's pool (server workers use this; the free-function
     * setThreadTid can only check the ambient Pool::current()).
     * @throws SlotRangeError on an out-of-range slot.
     */
    void bindThisThread(unsigned tid) const;

 private:
    void admitSlotSlow(unsigned tid);

    /** Active lazy-recovery session (null outside one). shared_ptr so
     *  engine copies — tests and benches pass Engine by value — share
     *  the one session. */
    std::shared_ptr<LazyRecovery> lazy_;
};

}  // namespace cnvm::txn

#endif  // CNVM_TXN_ENGINE_H
