/**
 * @file
 * Crash-point torture drivers.
 *
 * Three drivers over the same rig (pool + heap + runtime + structure +
 * CrashScheduler + ShadowOracle). Each runs ops through
 * TortureRig::runArmed() and, when the trap fires, settles the crash
 * with TortureRig::settleCrash(): tear, recover, audit quarantine
 * integrity, and resolve the interrupted op (all-or-nothing, by
 * probing). The drivers differ in the ops they arm and in their
 * answer to a recovery that declares salvage aborts:
 *
 *  - exhaustiveSweep(): for one (protocol, structure) pair, crash an
 *    insert / update / remove at event index 1, 2, 3, ... until the
 *    operation commits without reaching the trap twice in a row
 *    (event counts drift as the structure grows, so a single quiet
 *    attempt is not proof of quiescence). After every crash it audits
 *    the full shadow, and at the end it audits the allocator by
 *    replaying the committed-operation history on a fresh rig: equal
 *    freeBytes() means crashes leaked nothing. A declared abort
 *    rebuilds the rig from that history.
 *
 *  - mediaFaultSweep(): the same crash sweep with a seeded media-fault
 *    round landed by every tear, one fresh rig per event index. A
 *    declared abort relaxes the audit to usability and counts the
 *    keys it cost.
 *
 *  - fuzz(): randomized YCSB-like histories on N logical threads
 *    (sim::Executor round-robin, so each case is a deterministic
 *    function of its seed). Each case first runs crash-free to count
 *    its events, then re-runs armed at a random index with randomized
 *    torn-write CrashParams. A declared abort ends the case. A failing
 *    case is shrunk greedily to the smallest (seed, nOps, event-index)
 *    triple that still fails, and the report carries the exact
 *    cnvm_torture --replay invocation.
 */
#ifndef CNVM_TESTING_TORTURE_H
#define CNVM_TESTING_TORTURE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/pm_allocator.h"
#include "common/error.h"
#include "nvm/pool.h"
#include "runtimes/factory.h"
#include "structures/kv.h"
#include "testing/crash_scheduler.h"
#include "testing/oracle.h"
#include "txn/engine.h"
#include "txn/runtime.h"

namespace cnvm::torture {

/** How the image tears once a trap fires. */
enum class Tear {
    allLost,     ///< every volatile word reverts (deterministic)
    randomTear,  ///< per-word survival, seeded (torn-write variation)
};

/**
 * Run `op` and say what it let escape: "" when it returned,
 * "panicked: <detail>" for a PanicError (what() less a failed check's
 * source location, so a report reads the same from any checkout), and
 * "failed: <what>" for a FatalError or a transaction's
 * txn::LogOverflowError (small torture ops overflow their log only
 * when a damaged structure loops). The drivers prefix it with what ran
 * ("op", "recovery", "history") and fail the case, so the report
 * carries the case's reproduce line instead of the process ending in
 * std::terminate. Anything else, nvm::CrashInjected included,
 * propagates.
 */
template <typename Fn>
std::string
escapeOf(Fn&& op)
{
    try {
        op();
    } catch (const PanicError& e) {
        return strprintf("panicked: %s", e.detail());
    } catch (const FatalError& e) {
        return strprintf("failed: %s", e.what());
    } catch (const txn::LogOverflowError& e) {
        return strprintf("failed: %s", e.what());
    }
    return {};
}

/**
 * Media-fault campaign axis layered on the crash sweeps: every tear
 * additionally lands `bitFlips` flipped bits, `poisons` poisoned
 * lines and `transients` transiently-failing lines in the selected
 * regions (deterministic from the seed enableFaults() takes). With
 * `duringRecoveryRounds` > 0, recovery itself is crash-armed and
 * re-torn that many times — each re-tear injecting another fault
 * round — before the final uninterrupted recovery.
 */
struct FaultSpec {
    bool enabled = false;
    uint32_t bitFlips = 1;
    uint32_t poisons = 1;
    uint32_t transients = 1;
    uint32_t regionMask =
        nvm::kFaultDesc | nvm::kFaultLog | nvm::kFaultAllocMeta;
    int duringRecoveryRounds = 0;
};

/** What TortureRig::settleCrash() found. */
struct Settled {
    /** Recovery returned and quarantine integrity held; otherwise
     *  `failure` says which did not. */
    bool recovered = false;
    /** Recovery declared salvage aborts: the shadow no longer binds
     *  and the interrupted op was left unresolved. */
    bool declared = false;
    /** The interrupted op took effect; the shadow now holds it. */
    bool committed = false;
    /** Empty when the crash settled; else "recovery <escape>", a
     *  quarantine violation, or (recovered) the interrupted op torn. */
    std::string failure;
};

/**
 * One self-contained torture target: an anonymous pool with its heap,
 * runtime, engine, structure, scheduler and oracle. Everything the
 * drivers need to crash, recover and audit.
 */
class TortureRig {
 public:
    TortureRig(txn::RuntimeKind kind, const std::string& structure,
               size_t poolBytes = 32ULL << 20);
    ~TortureRig();

    /**
     * Attach a fault model seeded with `seed` to the pool and refine
     * its region map with the runtime/allocator layouts. Injection
     * rounds then fire inside every simulated tear.
     */
    void enableFaults(const FaultSpec& spec, uint64_t seed);

    /** Recovery path every settled crash takes (default: full). */
    void setRecoveryMode(txn::RecoveryMode m) { recMode_ = m; }

    /**
     * Arm the scheduler at event `k` (0: unarmed), run `fn` through
     * escapeOf() into `*escaped`, and disarm.
     * @return whether the trap fired inside `fn`.
     */
    bool runArmed(uint64_t k, const std::function<void()>& fn,
                  std::string* escaped);

    /**
     * Settle a crash that runArmed() reported: tear the image
     * (`tearSeed` and `params` seed a random tear), recover with
     * `retears` re-tears of recovery itself, and audit quarantine
     * integrity. Unless recovery declared salvage aborts, resolve
     * `inFlight` (null or a lookup: nothing to resolve) against the
     * shadow: the structure must hold its old or its new state.
     */
    Settled settleCrash(Tear tear, uint64_t tearSeed,
                        const nvm::CrashParams& params, int retears,
                        const Op* inFlight);

    /** The report of the most recent settleCrash()'s recovery. */
    const txn::RecoveryReport& lastReport() const { return lastReport_; }

    nvm::Pool& pool() { return *pool_; }
    alloc::PmAllocator& heap() { return *heap_; }
    txn::Runtime& runtime() { return *runtime_; }
    ds::KvStructure& kv() { return *kv_; }
    CrashScheduler& sched() { return *sched_; }
    ShadowOracle& shadow() { return shadow_; }

 private:
    std::unique_ptr<nvm::Pool> pool_;
    std::unique_ptr<alloc::PmAllocator> heap_;
    std::unique_ptr<txn::Runtime> runtime_;
    std::unique_ptr<txn::Engine> engine_;
    std::unique_ptr<ds::KvStructure> kv_;
    std::unique_ptr<CrashScheduler> sched_;
    ShadowOracle shadow_;
    txn::RecoveryMode recMode_ = txn::RecoveryMode::full;
    txn::RecoveryReport lastReport_;

    /**
     * Tear the image (injecting a fault round when faults are
     * enabled) and run recovery, capturing lastReport(). With
     * `retears` > 0, recovery is crash-armed and re-torn up to that
     * many times first (each re-tear another injection round).
     *
     * Under RecoveryMode::lazy the crash recovers through the engine:
     * triage, then first-touch admission of every slot, then
     * finishRecovery() — so the sweeps audit the exact same images
     * through the instant-restart path, re-tears landing inside
     * triage and the heal drain alike.
     *
     * @return what recovery let escape (see escapeOf), "" if nothing.
     */
    std::string crashAndRecover(Tear tear, uint64_t seed,
                                const nvm::CrashParams& params,
                                int retears);
    void recoverOnce();
};

struct SweepConfig {
    Tear tear = Tear::allLost;
    uint64_t seed = 1;
    /** Optional op budget; 0 = unlimited. The sweep stops early
     *  (result.truncated) when the budget runs out. */
    uint64_t budget = 0;
    /** Recovery path every crash goes through (lazy: triage +
     *  first-touch + settle — same audits, instant-restart path). */
    txn::RecoveryMode recovery = txn::RecoveryMode::full;
};

struct SweepResult {
    bool passed = true;
    bool truncated = false;
    uint64_t attempts = 0;   ///< armed operations executed
    uint64_t crashes = 0;    ///< traps that fired
    uint64_t commits = 0;    ///< operations that ended committed
    /** Crashes whose recovery *declared* salvage aborts. The shadow
     *  oracle stops binding for that image (same contract the media
     *  sweep honors), so the sweep rebuilds the rig from the
     *  committed history and later attempts are audited strictly
     *  again. Besides media damage, a plain
     *  tear can declare: Atlas's deferred acquire marker can tear
     *  under a valid undo entry that shares its cache line, and the
     *  scan then reports the log corrupted (DESIGN.md §12). */
    uint64_t declaredAborts = 0;
    uint64_t maxEventIndex = 0;
    std::string failure;     ///< first violation (empty if none)
    std::string summary(txn::RuntimeKind kind,
                        const std::string& structure) const;
};

/** Crash one (protocol, structure) pair at every event index. */
SweepResult exhaustiveSweep(txn::RuntimeKind kind,
                            const std::string& structure,
                            const SweepConfig& cfg = SweepConfig{});

struct MediaSweepConfig {
    Tear tear = Tear::allLost;
    uint64_t seed = 1;
    /** Fault round landed by every tear (enabled forced on). */
    FaultSpec faults{};
    /** First swept event index (cases are independent — a fresh rig
     *  per index — so a single failing case replays exactly with
     *  startIndex = failingIndex, budget = 1). */
    uint64_t startIndex = 1;
    /** Armed-case cap; 0 = unlimited (run to quiescence). */
    uint64_t budget = 0;
    /** Recovery path every crash goes through. */
    txn::RecoveryMode recovery = txn::RecoveryMode::full;
};

struct MediaSweepResult {
    bool passed = true;
    bool truncated = false;
    uint64_t cases = 0;          ///< armed cases executed
    uint64_t crashes = 0;        ///< traps that fired
    uint64_t salvageAborts = 0;  ///< slots declared aborted, summed
    uint64_t strictAudits = 0;   ///< clean recoveries, full oracle
    uint64_t relaxedAudits = 0;  ///< declared-salvage recoveries
    uint64_t collateralKeys = 0; ///< keys lost under declared salvage
    uint64_t failingIndex = 0;   ///< event index of first failure
    std::string failure;         ///< first violation (empty if none)
    std::string summary(txn::RuntimeKind kind,
                        const std::string& structure) const;
};

/**
 * Crash × media-fault sweep: for event index k = 1, 2, ... run a
 * fresh rig with a seeded fault model, arm the k-th event of one
 * mutating op, tear + inject + recover, then audit. The shadow-oracle
 * audit is strict unless the RecoveryReport *declared* salvage aborts
 * for this case — detected damage relaxes the audit to structure
 * usability + quarantine integrity; undetected damage still fails.
 * A protocol that cannot detect media damage (nolog) therefore fails
 * this sweep, which is the honesty check on the relaxation.
 */
MediaSweepResult mediaFaultSweep(txn::RuntimeKind kind,
                                 const std::string& structure,
                                 const MediaSweepConfig& cfg =
                                     MediaSweepConfig{});

/** A replayable fuzz case: fully determined by these three numbers
 *  (plus the FuzzConfig it runs under). crashAt = 0: no crash. */
struct FuzzCase {
    uint64_t seed = 1;
    uint32_t nOps = 64;      ///< operations per logical thread
    uint64_t crashAt = 0;    ///< armed event index
};

struct FuzzConfig {
    unsigned threads = 2;    ///< logical threads (sim::Executor)
    Tear tear = Tear::randomTear;
    uint64_t budget = 4000;  ///< total ops across all cases
    uint64_t baseSeed = 1;
    bool shrink = true;
    /** Optional media-fault round per tear. A case whose recovery
     *  declares salvage aborts ends early (quarantine-audited, not
     *  oracle-verified) — the declaration is the contract. */
    FaultSpec faults{};
    /** Recovery path every crash goes through. */
    txn::RecoveryMode recovery = txn::RecoveryMode::full;
};

/** Outcome of one fuzz case replay. */
struct CaseResult {
    std::string failure;     ///< empty = pass
    uint64_t events = 0;     ///< events the case generated
    bool crashed = false;    ///< did the armed trap fire?
    uint64_t opsExecuted = 0;
};

/**
 * Replay one case bit-for-bit (the CLI's --replay path). The case is
 * deterministic: same seed, nOps, crashAt and config shape reproduce
 * the same history, crash point and tear.
 */
CaseResult runFuzzCase(txn::RuntimeKind kind,
                       const std::string& structure,
                       const FuzzCase& c, const FuzzConfig& cfg);

struct FuzzOutcome {
    bool passed = true;
    uint64_t casesRun = 0;
    uint64_t opsRun = 0;
    uint64_t crashes = 0;
    FuzzCase failing{};      ///< first failing case (if !passed)
    FuzzCase shrunk{};       ///< minimized case (if !passed)
    std::string failure;
    /** Human-readable report incl. the --replay reproduction line. */
    std::string report(txn::RuntimeKind kind,
                       const std::string& structure) const;
};

/** Run randomized cases until the op budget is exhausted or one
 *  fails; failing cases are shrunk before returning. */
FuzzOutcome fuzz(txn::RuntimeKind kind, const std::string& structure,
                 const FuzzConfig& cfg = FuzzConfig{});

/**
 * Greedy minimization: repeatedly try smaller nOps, then smaller
 * crashAt, keeping every candidate that still fails. Bounded by
 * `maxReplays` case replays.
 */
FuzzCase shrinkCase(txn::RuntimeKind kind, const std::string& structure,
                    const FuzzCase& failing, const FuzzConfig& cfg,
                    int maxReplays = 40);

}  // namespace cnvm::torture

#endif  // CNVM_TESTING_TORTURE_H
