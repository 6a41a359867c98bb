#include "testing/torture.h"

#include <algorithm>

#include "common/error.h"
#include "common/rand.h"
#include "nvm/fault_model.h"
#include "runtimes/salvage.h"
#include "sim/executor.h"

namespace cnvm::torture {

namespace {

/** Canonical protocol name for reports / --replay lines. */
const char*
kindName(txn::RuntimeKind kind)
{
    switch (kind) {
      case txn::RuntimeKind::noLog: return "nolog";
      case txn::RuntimeKind::undo: return "undo";
      case txn::RuntimeKind::redo: return "redo";
      case txn::RuntimeKind::clobber: return "clobber";
      case txn::RuntimeKind::atlas: return "atlas";
      case txn::RuntimeKind::ido: return "ido";
    }
    return "?";
}

/** Deterministic value bytes for (key, salt). */
std::string
valueFor(const std::string& key, uint64_t salt, size_t len)
{
    std::string v(len, '\0');
    Xorshift r(fnv1a(key.data(), key.size()) ^ (salt * 0x9e3779b9ULL));
    for (char& c : v)
        c = static_cast<char>('a' + r.nextUint(26));
    return v;
}

/** Seeded torn-write knobs: survival drawn from a coarse grid so the
 *  extremes (everything lost / everything evicted) occur often. */
nvm::CrashParams
paramsFor(uint64_t seed)
{
    static const double levels[] = {0.0, 0.25, 0.5, 0.75, 1.0};
    Xorshift r(seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
    nvm::CrashParams p;
    p.dirtySurvival = levels[r.nextUint(5)];
    p.pendingSurvival = levels[r.nextUint(5)];
    return p;
}

/** Crash-free armed runs in a row that end a sweep: event counts
 *  drift as the structure grows, so one quiet run is not quiescence. */
constexpr int kQuietRuns = 2;
/** Safety caps on the swept event index. */
constexpr uint64_t kSweepMaxIndex = 20000;
constexpr uint64_t kMediaMaxIndex = 4000;
/** Pool size of each media case's fresh rig. */
constexpr size_t kMediaPoolBytes = 8ULL << 20;
/** A fuzz case's ops per logical thread, and its Zipfian key universe. */
constexpr uint32_t kOpsPerCase = 48;
constexpr uint64_t kKeySpace = 48;

/**
 * The committed keys both sweeps start from. Every generated key is
 * unique within its first 8 bytes: rbtree/skiplist key on keyToU64
 * (the big-endian first 8 bytes), so longer shared prefixes would
 * alias distinct shadow keys.
 */
std::vector<Op>
baselineOps(uint64_t seed)
{
    std::vector<Op> ops;
    for (int i = 0; i < 4; i++) {
        std::string key = strprintf("b%07d", i);
        ops.push_back({Op::insert, key, valueFor(key, seed, 20)});
    }
    return ops;
}

/** Apply `ops` to the rig's structure and shadow, stopping at the
 *  first escape. */
std::string
replay(TortureRig& rig, const std::vector<Op>& ops)
{
    return escapeOf([&] {
        for (const Op& op : ops) {
            op.applyTo(rig.kv());
            rig.shadow().note(op);
        }
    });
}

/**
 * Resolve an interrupted single-key operation after recovery: the
 * atomicity contract says the structure holds either the old state or
 * the new state, never a blend.
 * @return empty string on success (with *committed set), else the
 *         violation description.
 */
std::string
resolveInterrupted(ds::KvStructure& kv, const ShadowOracle& shadow,
                   const Op& op, bool* committed)
{
    const std::string& key = op.key;
    ds::LookupResult r;
    bool found;
    try {
        found = kv.lookup(key, &r);
    } catch (const PanicError& e) {
        return strprintf("panic resolving interrupted op on \"%s\": %s",
                         key.c_str(), e.what());
    } catch (const FatalError& e) {
        return strprintf("fatal resolving interrupted op on \"%s\": %s",
                         key.c_str(), e.what());
    }
    bool hadOld = shadow.contains(key);
    std::string oldVal = shadow.valueOf(key);
    if (op.kind == Op::insert) {
        if (found && r.str() == op.val) {
            *committed = true;
            return {};
        }
        if (found && hadOld && r.str() == oldVal) {
            *committed = false;
            return {};
        }
        if (!found && !hadOld) {
            *committed = false;
            return {};
        }
        return strprintf(
            "interrupted insert of \"%s\" torn: %s (old %zu bytes, "
            "new %zu bytes)",
            key.c_str(),
            found ? strprintf("found %zu unexpected bytes",
                              static_cast<size_t>(r.len))
                        .c_str()
                  : "key vanished",
            oldVal.size(), op.val.size());
    }
    // Interrupted remove.
    if (!found) {
        *committed = true;
        return {};
    }
    if (hadOld && r.str() == oldVal) {
        *committed = false;
        return {};
    }
    return strprintf("interrupted remove of \"%s\" torn: key still "
                     "present with %zu unexpected bytes",
                     key.c_str(), static_cast<size_t>(r.len));
}

}  // namespace

const char*
tearName(Tear t)
{
    return t == Tear::allLost ? "alllost" : "random";
}

TortureRig::TortureRig(txn::RuntimeKind kind,
                       const std::string& structure, size_t poolBytes)
{
    nvm::PoolConfig cfg;
    cfg.size = poolBytes;
    cfg.maxThreads = 8;
    cfg.slotBytes = 128ULL << 10;
    pool_ = nvm::Pool::create(cfg);
    // Pool::create only claims the ambient slot when it is empty, but
    // the leak-audit replay rig coexists with the rig under test, so
    // claim it explicitly and restore on destruction (LIFO nesting).
    nvm::Pool::setCurrent(pool_.get());
    heap_ = std::make_unique<alloc::PmAllocator>(*pool_);
    runtime_ = rt::makeRuntime(kind, *pool_, *heap_);
    engine_ = std::make_unique<txn::Engine>(*runtime_);
    kv_ = ds::makeKv(structure, *engine_, 0);
    sched_ = std::make_unique<CrashScheduler>(*pool_);
}

TortureRig::~TortureRig()
{
    sched_.reset();  // uninstall the observer before the pool dies
    if (nvm::Pool::current() == pool_.get())
        nvm::Pool::setCurrent(nullptr);
}

void
TortureRig::enableFaults(const FaultSpec& spec, uint64_t seed)
{
    nvm::FaultConfig fc;
    fc.seed = seed;
    fc.bitFlips = spec.bitFlips;
    fc.poisons = spec.poisons;
    fc.transients = spec.transients;
    fc.regionMask = spec.regionMask;
    fc.injectOnCrash = true;
    pool_->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
    rt::defineFaultRegions(*pool_, *heap_);
}

bool
TortureRig::runArmed(uint64_t k, const std::function<void()>& fn,
                     std::string* escaped)
{
    escaped->clear();
    sched_->arm(k);
    bool fired = false;
    try {
        *escaped = escapeOf(fn);
    } catch (const nvm::CrashInjected&) {
        fired = true;
    } catch (...) {
        sched_->disarm();
        throw;
    }
    sched_->disarm();
    return fired;
}

void
TortureRig::recoverOnce()
{
    if (recMode_ != txn::RecoveryMode::lazy) {
        lastReport_ = runtime_->recover();
        return;
    }
    // Instant-restart path, driven deterministically on this thread:
    // triage, then first-touch admission of every slot (each heals its
    // pending entry inline), then settle — which heals anything left
    // plus the incremental heap rebuild and folds the cumulative
    // report into the engine. A trap firing anywhere inside leaves
    // the session resumable: the next recover() re-triages.
    engine_->recover(txn::RecoveryMode::lazy,
                     /* backgroundHealer */ false);
    for (unsigned t = 0; t < pool_->maxThreads(); t++)
        engine_->admitSlot(t);
    lastReport_ = engine_->finishRecovery();
}

std::string
TortureRig::crashAndRecover(Tear tear, uint64_t seed,
                            const nvm::CrashParams& params, int retears)
{
    // simulateCrash*() runs the fault model's injection round (a
    // no-op when no model is attached).
    if (tear == Tear::allLost)
        pool_->simulateCrashAllLost();
    else
        pool_->simulateCrash(seed, params);
    for (int r = 0; r < retears; r++) {
        // Crash recovery itself partway through, re-tear (another
        // injection round), and try again: recovery must be
        // idempotent even while faults keep landing. The arm point
        // walks forward per round to sample different windows.
        std::string escaped;
        if (!runArmed(7 + 13 * static_cast<uint64_t>(r),
                      [this] { recoverOnce(); }, &escaped))
            return escaped;  // recovery outran the trap
        pool_->simulateCrashAllLost();
    }
    return escapeOf([this] { recoverOnce(); });
}

Settled
TortureRig::settleCrash(Tear tear, uint64_t tearSeed,
                        const nvm::CrashParams& params, int retears,
                        const Op* inFlight)
{
    Settled s;
    std::string escaped = crashAndRecover(tear, tearSeed, params, retears);
    if (!escaped.empty()) {
        s.failure = "recovery " + escaped;
        return s;
    }
    s.declared = lastReport_.salvageAborted > 0;
    // Declared or not, quarantined blocks must never resurface in the
    // allocator's free map.
    if (heap_->quarantineViolation()) {
        s.failure = "quarantined block resurfaced in the free map";
        return s;
    }
    s.recovered = true;
    if (s.declared || inFlight == nullptr || inFlight->kind == Op::lookup)
        return s;
    s.failure = resolveInterrupted(*kv_, shadow_, *inFlight, &s.committed);
    if (s.committed)
        shadow_.note(*inFlight);
    return s;
}

std::string
SweepResult::summary(txn::RuntimeKind kind,
                     const std::string& structure) const
{
    return strprintf(
        "%-8s %-8s %s: %llu attempts, %llu crashes, %llu commits, "
        "%llu declared aborts, max event index %llu%s%s%s",
        kindName(kind), structure.c_str(),
        passed ? "PASS" : "FAIL",
        static_cast<unsigned long long>(attempts),
        static_cast<unsigned long long>(crashes),
        static_cast<unsigned long long>(commits),
        static_cast<unsigned long long>(declaredAborts),
        static_cast<unsigned long long>(maxEventIndex),
        truncated ? " (budget-truncated)" : "",
        failure.empty() ? "" : "\n    first failure: ",
        failure.c_str());
}

SweepResult
exhaustiveSweep(txn::RuntimeKind kind, const std::string& structure,
                const SweepConfig& cfg)
{
    SweepResult res;
    auto rig = std::make_unique<TortureRig>(kind, structure);
    rig->setRecoveryMode(cfg.recovery);
    std::vector<Op> history;  // the committed ops, in order
    uint64_t usedOps = 0;

    auto fail = [&](const std::string& why) {
        if (res.passed) {
            res.passed = false;
            res.failure = why;
        }
    };
    auto record = [&](const Op& op) {
        history.push_back(op);
        res.commits++;
    };
    /** Run a set-up op crash-free and commit it; false if it escaped. */
    auto applyCommitted = [&](const Op& op, const char* what) {
        std::string escaped = escapeOf([&] { op.applyTo(rig->kv()); });
        if (!escaped.empty()) {
            fail(std::string(what) + " " + escaped);
            return false;
        }
        rig->shadow().note(op);
        record(op);
        usedOps++;
        return true;
    };
    auto verifyAll = [&](uint64_t k, const char* phase) {
        std::string err = rig->shadow().verify(rig->kv());
        if (!err.empty())
            fail(strprintf("%s sweep, event index %llu: %s", phase,
                           static_cast<unsigned long long>(k),
                           err.c_str()));
    };

    /**
     * One sweep phase: crash makeOp(k) at event index k = 1, 2, ...
     * until it runs crash-free kQuietRuns times in a row, the budget
     * runs out, or the sweep fails.
     */
    auto sweepPhase = [&](const char* phase,
                          const std::function<Op(uint64_t)>& makeOp) {
        int quiet = 0;
        for (uint64_t k = 1; quiet < kQuietRuns && res.passed; k++) {
            if (cfg.budget != 0 && usedOps >= cfg.budget) {
                res.truncated = true;
                break;
            }
            if (k > kSweepMaxIndex) {
                fail(strprintf("%s sweep did not quiesce (maxIndex hit)",
                               phase));
                break;
            }
            Op op = makeOp(k);
            if (!res.passed)
                break;
            usedOps++;
            res.attempts++;
            std::string escaped;
            bool crashed = rig->runArmed(
                k, [&] { op.applyTo(rig->kv()); }, &escaped);
            if (!escaped.empty()) {
                fail(strprintf("%s sweep, event index %llu: op %s", phase,
                               static_cast<unsigned long long>(k),
                               escaped.c_str()));
                break;
            }
            if (!crashed) {
                quiet++;
                rig->shadow().note(op);
                record(op);
                verifyAll(k, phase);
                continue;
            }
            quiet = 0;
            res.crashes++;
            res.maxEventIndex = std::max(res.maxEventIndex, k);
            Settled s = rig->settleCrash(cfg.tear, cfg.seed * 1000003 + k,
                                         paramsFor(cfg.seed ^ (k << 20)),
                                         0, &op);
            if (s.declared)
                res.declaredAborts++;
            if (!s.failure.empty()) {
                fail(strprintf("%s sweep, event index %llu: %s", phase,
                               static_cast<unsigned long long>(k),
                               s.failure.c_str()));
                break;
            }
            if (s.declared) {
                // Recovery abandoned the interrupted transaction and
                // said so: a plain tear can leave a log scan reporting
                // damage (Atlas's deferred acquire marker, DESIGN.md
                // §12), and a roll-back past damage is best-effort —
                // the image may hold arbitrarily torn state, and even
                // walking it can loop on a torn pointer. The
                // declaration is the contract, exactly as in the media
                // sweep: the abandoned op did not commit, and only
                // quarantine integrity (audited above) still binds.
                // Rebuild an equivalent clean rig from the committed
                // history so the *next* attempt is audited strictly.
                rig.reset();  // LIFO pool-slot nesting: destroy first
                rig = std::make_unique<TortureRig>(kind, structure);
                rig->setRecoveryMode(cfg.recovery);
                std::string err = replay(*rig, history);
                if (!err.empty())
                    fail("history replay after declared salvage " + err);
                continue;
            }
            if (s.committed)
                record(op);
            verifyAll(k, phase);
        }
    };

    for (const Op& op : baselineOps(cfg.seed)) {
        if (!applyCommitted(op, "baseline insert"))
            break;
    }
    sweepPhase("insert", [&](uint64_t k) {
        std::string key =
            strprintf("i%07llu", static_cast<unsigned long long>(k));
        return Op{Op::insert, key, valueFor(key, cfg.seed, 20)};
    });

    const std::string target = "u-target";
    if (res.passed) {
        applyCommitted({Op::insert, target, valueFor(target, cfg.seed, 20)},
                       "update-target insert");
    }
    // Alternate value sizes: same-size updates stay in place,
    // different-size updates exercise the realloc/reinsert paths of
    // the structures.
    sweepPhase("update", [&](uint64_t k) {
        return Op{Op::insert, target,
                  valueFor(target, cfg.seed + k, k % 2 == 0 ? 20 : 28)};
    });

    // A fresh committed victim per attempt keeps the swept operation's
    // shape stable while the sweep advances.
    sweepPhase("remove", [&](uint64_t k) {
        std::string key =
            strprintf("r%07llu", static_cast<unsigned long long>(k));
        applyCommitted({Op::insert, key, valueFor(key, cfg.seed, 20)},
                       "victim insert");
        return Op{Op::remove, key, {}};
    });

    // Allocator leak audit: empty the structure, then replay only the
    // committed operations on a fresh rig. Rolled-back operations must
    // have left no persistent allocation behind, so the two allocators
    // must agree byte-for-byte on total free space.
    if (!res.passed)
        return res;
    std::vector<std::string> keys;
    for (const auto& [k, v] : rig->shadow().entries())
        keys.push_back(k);
    for (const std::string& k : keys) {
        if (!applyCommitted({Op::remove, k, {}}, "cleanup remove"))
            return res;
    }
    verifyAll(0, "cleanup");
    if (!res.passed)
        return res;
    TortureRig ref(kind, structure);
    std::string escaped = replay(ref, history);
    if (!escaped.empty()) {
        fail("leak-audit replay " + escaped);
    } else if (ref.heap().freeBytes() != rig->heap().freeBytes()) {
        fail(strprintf("allocator leak: %zu free bytes after crashes vs "
                       "%zu after crash-free replay of the %zu committed "
                       "ops",
                       rig->heap().freeBytes(), ref.heap().freeBytes(),
                       history.size()));
    }
    return res;
}

std::string
MediaSweepResult::summary(txn::RuntimeKind kind,
                          const std::string& structure) const
{
    return strprintf(
        "%-8s %-8s media %s: %llu cases, %llu crashes, %llu salvage "
        "aborts, %llu strict + %llu relaxed audits, %llu collateral "
        "keys%s%s%s",
        kindName(kind), structure.c_str(), passed ? "PASS" : "FAIL",
        static_cast<unsigned long long>(cases),
        static_cast<unsigned long long>(crashes),
        static_cast<unsigned long long>(salvageAborts),
        static_cast<unsigned long long>(strictAudits),
        static_cast<unsigned long long>(relaxedAudits),
        static_cast<unsigned long long>(collateralKeys),
        truncated ? " (budget-truncated)" : "",
        failure.empty()
            ? ""
            : strprintf("\n    first failure (event index %llu): ",
                        static_cast<unsigned long long>(failingIndex))
                  .c_str(),
        failure.c_str());
}

MediaSweepResult
mediaFaultSweep(txn::RuntimeKind kind, const std::string& structure,
                const MediaSweepConfig& cfg)
{
    MediaSweepResult res;
    int quiet = 0;

    auto fail = [&](uint64_t k, const std::string& why) {
        if (!res.passed)
            return;
        res.passed = false;
        res.failingIndex = k;
        res.failure = why + strprintf(
            "\n    reproduce: cnvm_torture --protocol %s --structure "
            "%s --mode media --fault %u:%u:%u --fault-regions %s "
            "--fault-recovery %d --fault-seed %llu --index %llu",
            kindName(kind), structure.c_str(), cfg.faults.bitFlips,
            cfg.faults.poisons, cfg.faults.transients,
            nvm::faultRegionNames(cfg.faults.regionMask).c_str(),
            cfg.faults.duringRecoveryRounds,
            static_cast<unsigned long long>(cfg.seed),
            static_cast<unsigned long long>(k));
    };

    const std::vector<Op> baseline = baselineOps(cfg.seed);
    for (uint64_t k = cfg.startIndex; quiet < kQuietRuns && res.passed;
         k++) {
        if (cfg.budget != 0 && res.cases >= cfg.budget) {
            res.truncated = true;
            break;
        }
        if (k > kMediaMaxIndex) {
            fail(k, "media sweep did not quiesce (maxIndex hit)");
            break;
        }
        // Every case is a fresh rig: faults from one case must never
        // bleed into the next, and a failing index replays exactly.
        TortureRig rig(kind, structure, kMediaPoolBytes);
        rig.setRecoveryMode(cfg.recovery);
        rig.enableFaults(cfg.faults, cfg.seed * 0x9e3779b97f4a7c15ULL + k);

        // Committed baseline. Injection only fires on tears, so these
        // crash-free inserts populate deterministically.
        std::string escaped = replay(rig, baseline);
        if (!escaped.empty()) {
            fail(k, "baseline insert " + escaped);
            break;
        }

        // One armed mutating op, shape cycling with the index so the
        // sweep crosses insert, in-place/resize update and remove.
        Op op;
        switch (k % 3) {
          case 0:  // update an existing key (size change)
            op = {Op::insert, "b0000000",
                  valueFor("b0000000", cfg.seed + k, 28)};
            break;
          case 1: {  // fresh insert
            std::string key =
                strprintf("m%07llu", static_cast<unsigned long long>(k));
            op = {Op::insert, key, valueFor(key, cfg.seed, 20)};
            break;
          }
          default:  // remove a committed victim
            op = {Op::remove, "b0000001", {}};
            break;
        }
        res.cases++;
        bool crashed =
            rig.runArmed(k, [&] { op.applyTo(rig.kv()); }, &escaped);
        if (!escaped.empty()) {
            fail(k, "armed op " + escaped);
            break;
        }
        if (!crashed) {
            quiet++;
            rig.shadow().note(op);
            std::string err = rig.shadow().verify(rig.kv());
            if (!err.empty())
                fail(k, strprintf("crash-free case: %s", err.c_str()));
            continue;
        }
        quiet = 0;
        res.crashes++;
        Settled s = rig.settleCrash(cfg.tear, cfg.seed * 1000003 + k,
                                    paramsFor(cfg.seed ^ (k << 20)),
                                    cfg.faults.duringRecoveryRounds, &op);
        if (!s.recovered) {
            fail(k, s.failure);
            break;
        }
        if (!s.declared) {
            // Recovery claims full repair — the full oracle binds,
            // exactly as in the plain crash sweeps. A protocol that
            // cannot detect media damage (nolog) always lands here,
            // and honestly fails.
            res.strictAudits++;
            std::string err = s.failure.empty()
                                  ? rig.shadow().verify(rig.kv())
                                  : s.failure;
            if (!err.empty()) {
                fail(k, "strict audit (no salvage declared): " + err);
                break;
            }
            continue;
        }
        // Damage was detected and declared: the abandoned
        // transaction's effects are undefined (clobber cannot
        // un-write blind stores it could not restore), so per-key
        // state may legitimately disagree with the shadow. What
        // must still hold was checked by settleCrash (quarantine
        // integrity) and below: probing must never crash the
        // recovered process. Everything else is counted as
        // declared collateral, not failure.
        res.relaxedAudits++;
        res.salvageAborts += rig.lastReport().salvageAborted;
        // A probe that throws leaves its key counted.
        for (const auto& [sk, sv] : rig.shadow().entries()) {
            bool intact = false;
            (void)escapeOf([&] {
                ds::LookupResult r;
                intact = rig.kv().lookup(sk, &r) && r.str() == sv;
            });
            if (!intact)
                res.collateralKeys++;
        }
        std::string sk =
            strprintf("s%07llu", static_cast<unsigned long long>(k));
        std::string sv = valueFor(sk, cfg.seed, 20);
        bool intact = false;
        (void)escapeOf([&] {
            rig.kv().insert(sk, sv);
            ds::LookupResult r;
            intact = rig.kv().lookup(sk, &r) && r.str() == sv;
        });
        if (!intact)
            res.collateralKeys++;
    }
    return res;
}

namespace {

/** Oracle mismatch detected while a fuzz history is executing. */
struct OracleMismatch {
    std::string msg;
};

std::vector<std::vector<Op>>
buildSchedule(const FuzzCase& c, unsigned threads)
{
    std::vector<std::vector<Op>> sched(threads);
    Xorshift rng(c.seed);
    for (unsigned t = 0; t < threads; t++) {
        Zipfian zipf(kKeySpace, 0.99, c.seed * 131 + t);
        sched[t].reserve(c.nOps);
        for (uint32_t i = 0; i < c.nOps; i++) {
            Op op;
            op.key = strprintf(
                "k%05llu", static_cast<unsigned long long>(zipf.next()));
            uint64_t dice = rng.nextUint(100);
            if (dice < 55) {
                op.kind = Op::insert;
                op.val = valueFor(op.key, rng.next(),
                                  8 + rng.nextUint(33));
            } else if (dice < 80) {
                op.kind = Op::remove;
            } else {
                op.kind = Op::lookup;
            }
            sched[t].push_back(std::move(op));
        }
    }
    return sched;
}

}  // namespace

CaseResult
runFuzzCase(txn::RuntimeKind kind, const std::string& structure,
            const FuzzCase& c, const FuzzConfig& cfg)
{
    CaseResult res;
    TortureRig rig(kind, structure);
    rig.setRecoveryMode(cfg.recovery);
    if (cfg.faults.enabled) {
        rig.enableFaults(cfg.faults, 0x9e3779b97f4a7c15ULL +
                                         c.seed * 131 + c.crashAt);
    }
    unsigned threads = std::min(std::max(cfg.threads, 1u),
                                rig.pool().maxThreads());
    auto sched = buildSchedule(c, threads);

    // Execution bookkeeping so an interrupted history can continue
    // after recovery: ops completed per thread, plus the in-flight op.
    std::vector<uint32_t> done(threads, 0);
    const Op* inFlight = nullptr;

    auto applyOne = [&](unsigned tid, const Op& op) {
        inFlight = &op;
        if (op.kind == Op::lookup) {
            // The executor multiplexes logical threads on one OS
            // thread, so the shadow is exact at every op boundary.
            ds::LookupResult r;
            bool found = rig.kv().lookup(op.key, &r);
            bool expect = rig.shadow().contains(op.key);
            if (found != expect ||
                (found && r.str() != rig.shadow().valueOf(op.key))) {
                throw OracleMismatch{strprintf(
                    "lookup of \"%s\" on thread %u disagrees with "
                    "the shadow (found=%d expected=%d)",
                    op.key.c_str(), tid, found ? 1 : 0,
                    expect ? 1 : 0)};
            }
        } else {
            op.applyTo(rig.kv());
            rig.shadow().note(op);
        }
        inFlight = nullptr;
        res.opsExecuted++;
    };

    std::string escaped;
    try {
        res.crashed = rig.runArmed(
            c.crashAt,
            [&] {
                sim::Executor ex(threads);
                ex.run(c.nOps, [&](sim::ThreadCtx& ctx, size_t i) {
                    applyOne(ctx.tid(), sched[ctx.tid()][i]);
                    done[ctx.tid()] = static_cast<uint32_t>(i) + 1;
                });
            },
            &escaped);
        if (!escaped.empty())
            res.failure = "history " + escaped;
    } catch (const OracleMismatch& m) {
        res.failure = m.msg;
    }
    res.events = rig.sched().eventCount();
    if (!res.failure.empty())
        return res;

    if (res.crashed) {
        const Op* op = inFlight;
        Settled s = rig.settleCrash(
            cfg.tear, c.seed ^ (c.crashAt * 2654435761ULL),
            paramsFor(c.seed + c.crashAt),
            cfg.faults.enabled ? cfg.faults.duringRecoveryRounds : 0, op);
        // A declared abort ends the case: the shadow oracle no longer
        // binds for this history, and the declaration is the
        // contract. (No structural probe: after a roll-back past
        // damaged entries the abandoned image may hold arbitrarily
        // torn pointers, and even a read-only walk can loop. A real
        // deployment re-creates the structure from its committed
        // state, which is exactly what the next case's fresh rig
        // does.)
        res.failure = s.failure;
        if (!res.failure.empty() || s.declared)
            return res;
        res.failure = rig.shadow().verify(rig.kv());
        if (!res.failure.empty()) {
            res.failure = "post-recovery audit: " + res.failure;
            return res;
        }
        // Continue the remaining history single-threaded, as a
        // restarted process draining the rest of the workload would
        // (the interrupted op itself was resolved above).
        try {
            escaped = escapeOf([&] {
                for (uint32_t i = 0; i < c.nOps; i++) {
                    for (unsigned t = 0; t < threads; t++) {
                        if (i < done[t])
                            continue;
                        if (&sched[t][i] == op)
                            continue;
                        applyOne(t, sched[t][i]);
                    }
                }
            });
        } catch (const OracleMismatch& m) {
            res.failure = "post-recovery " + m.msg;
            return res;
        }
        if (!escaped.empty()) {
            res.failure = "post-recovery history " + escaped;
            return res;
        }
    }

    res.failure = rig.shadow().verify(rig.kv());
    if (!res.failure.empty())
        res.failure = "final audit: " + res.failure;
    return res;
}

FuzzCase
shrinkCase(txn::RuntimeKind kind, const std::string& structure,
           const FuzzCase& failing, const FuzzConfig& cfg,
           int maxReplays)
{
    FuzzCase best = failing;
    int replays = 0;
    auto stillFails = [&](const FuzzCase& cand) {
        if (replays >= maxReplays)
            return false;
        replays++;
        return !runFuzzCase(kind, structure, cand, cfg)
                    .failure.empty();
    };

    // Phase 1: fewer operations. A shortened history that never
    // reaches the crash index simply passes, which correctly rejects
    // the candidate.
    bool progress = true;
    while (progress && replays < maxReplays) {
        progress = false;
        for (uint32_t cand :
             {best.nOps / 2, (best.nOps * 3) / 4, best.nOps - 1}) {
            if (cand < 1 || cand >= best.nOps)
                continue;
            FuzzCase c{best.seed, cand, best.crashAt};
            if (stillFails(c)) {
                best = c;
                progress = true;
                break;
            }
        }
    }
    // Phase 2: earlier crash index.
    progress = true;
    while (progress && replays < maxReplays) {
        progress = false;
        for (uint64_t cand : {best.crashAt / 2, (best.crashAt * 3) / 4,
                              best.crashAt - 1}) {
            if (cand < 1 || cand >= best.crashAt)
                continue;
            FuzzCase c{best.seed, best.nOps, cand};
            if (stillFails(c)) {
                best = c;
                progress = true;
                break;
            }
        }
    }
    return best;
}

std::string
FuzzOutcome::report(txn::RuntimeKind kind,
                    const std::string& structure) const
{
    std::string out = strprintf(
        "%-8s %-8s fuzz %s: %llu cases, %llu ops, %llu crashes\n",
        kindName(kind), structure.c_str(), passed ? "PASS" : "FAIL",
        static_cast<unsigned long long>(casesRun),
        static_cast<unsigned long long>(opsRun),
        static_cast<unsigned long long>(crashes));
    if (!passed) {
        out += strprintf(
            "    failure: %s\n"
            "    failing case: seed=%llu nOps=%u crashAt=%llu\n"
            "    shrunk case:  seed=%llu nOps=%u crashAt=%llu\n"
            "    reproduce: cnvm_torture --protocol %s --structure %s"
            " --replay %llu:%u:%llu\n",
            failure.c_str(),
            static_cast<unsigned long long>(failing.seed),
            failing.nOps,
            static_cast<unsigned long long>(failing.crashAt),
            static_cast<unsigned long long>(shrunk.seed), shrunk.nOps,
            static_cast<unsigned long long>(shrunk.crashAt),
            kindName(kind), structure.c_str(),
            static_cast<unsigned long long>(shrunk.seed), shrunk.nOps,
            static_cast<unsigned long long>(shrunk.crashAt));
    }
    return out;
}

FuzzOutcome
fuzz(txn::RuntimeKind kind, const std::string& structure,
     const FuzzConfig& cfg)
{
    FuzzOutcome out;
    Xorshift pick(cfg.baseSeed * 7919 + 17);
    uint64_t caseIdx = 0;
    auto fail = [&](const FuzzCase& c, const std::string& why) {
        out.passed = false;
        out.failing = c;
        out.failure = why;
        out.shrunk = cfg.shrink
                         ? shrinkCase(kind, structure, c, cfg)
                         : c;
    };
    while (out.passed && out.opsRun < cfg.budget) {
        // Dry run: count the case's events (and catch crash-free
        // bugs); then re-run armed at a random index within range.
        FuzzCase dryCase{cfg.baseSeed + caseIdx, kOpsPerCase, 0};
        CaseResult dry = runFuzzCase(kind, structure, dryCase, cfg);
        out.casesRun++;
        out.opsRun += std::max<uint64_t>(dry.opsExecuted, 1);
        if (!dry.failure.empty()) {
            fail(dryCase, dry.failure);
            break;
        }
        if (dry.events != 0) {
            FuzzCase armed{dryCase.seed, dryCase.nOps,
                           1 + pick.nextUint(dry.events)};
            CaseResult r = runFuzzCase(kind, structure, armed, cfg);
            out.casesRun++;
            out.opsRun += std::max<uint64_t>(r.opsExecuted, 1);
            if (r.crashed)
                out.crashes++;
            if (!r.failure.empty()) {
                fail(armed, r.failure);
                break;
            }
        }
        caseIdx++;
    }
    return out;
}

}  // namespace cnvm::torture
