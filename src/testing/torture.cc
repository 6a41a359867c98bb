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

/** An operation whose commit status the drivers have resolved. */
struct CommittedOp {
    bool isInsert;
    std::string key;
    std::string val;  ///< empty for removes
};

/**
 * Resolve an interrupted single-key operation after recovery: the
 * atomicity contract says the structure holds either the old state or
 * the new state, never a blend.
 * @return empty string on success (with *committed set), else the
 *         violation description.
 */
std::string
resolveInterrupted(ds::KvStructure& kv, const ShadowOracle& shadow,
                   bool isInsert, const std::string& key,
                   const std::string& newVal, bool* committed)
{
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
    if (isInsert) {
        if (found && r.str() == newVal) {
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
            oldVal.size(), newVal.size());
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
    : kind_(kind), structName_(structure)
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
    baselineFree_ = heap_->freeBytes();
    sched_ = std::make_unique<CrashScheduler>(*pool_);
}

TortureRig::~TortureRig()
{
    sched_.reset();  // uninstall the observer before the pool dies
    if (nvm::Pool::current() == pool_.get())
        nvm::Pool::setCurrent(nullptr);
}

void
TortureRig::enableFaults(const FaultSpec& spec)
{
    nvm::FaultConfig fc;
    fc.seed = spec.seed;
    fc.bitFlips = spec.bitFlips;
    fc.poisons = spec.poisons;
    fc.transients = spec.transients;
    fc.regionMask = spec.regionMask;
    fc.injectOnCrash = true;
    pool_->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
    rt::defineFaultRegions(*pool_, *heap_);
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

void
TortureRig::crashAndRecover(Tear tear, uint64_t seed,
                            const nvm::CrashParams& params,
                            int recoveryRetears)
{
    // simulateCrash*() runs the fault model's injection round (a
    // no-op when no model is attached).
    if (tear == Tear::allLost)
        pool_->simulateCrashAllLost();
    else
        pool_->simulateCrash(seed, params);
    for (int r = 0; r < recoveryRetears; r++) {
        // Crash recovery itself partway through, re-tear (another
        // injection round), and try again: recovery must be
        // idempotent even while faults keep landing. The arm point
        // walks forward per round to sample different windows.
        sched_->arm(7 + 13 * static_cast<uint64_t>(r));
        try {
            recoverOnce();
            sched_->disarm();
            return;  // recovery outran the trap
        } catch (const nvm::CrashInjected&) {
            sched_->disarm();
            pool_->simulateCrashAllLost();
        }
    }
    recoverOnce();
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
    std::vector<CommittedOp> history;
    uint64_t usedOps = 0;

    auto fail = [&](const std::string& why) {
        if (res.passed) {
            res.passed = false;
            res.failure = why;
        }
    };
    // After a *declared* salvage abort the image may hold arbitrarily
    // torn state (an eliding log writer's roll-back is best-effort) —
    // even walking it can loop on a torn pointer. Discard it and
    // rebuild an equivalent clean rig by replaying the committed
    // history, so the sweep keeps auditing strictly from here on.
    auto rebuildRig = [&] {
        rig.reset();  // LIFO pool-slot nesting: destroy before create
        rig = std::make_unique<TortureRig>(kind, structure);
        rig->setRecoveryMode(cfg.recovery);
        std::string escaped = escapeOf([&] {
            for (const CommittedOp& op : history) {
                if (op.isInsert) {
                    rig->kv().insert(op.key, op.val);
                    rig->shadow().noteInsert(op.key, op.val);
                } else {
                    rig->kv().remove(op.key);
                    rig->shadow().noteRemove(op.key);
                }
            }
        });
        if (!escaped.empty())
            fail("history replay after declared salvage " + escaped);
    };
    auto budgetLeft = [&] {
        if (cfg.budget != 0 && usedOps >= cfg.budget) {
            res.truncated = true;
            return false;
        }
        return true;
    };
    auto commitInsert = [&](const std::string& k, const std::string& v) {
        rig->shadow().noteInsert(k, v);
        history.push_back({true, k, v});
        res.commits++;
    };
    auto commitRemove = [&](const std::string& k) {
        rig->shadow().noteRemove(k);
        history.push_back({false, k, {}});
        res.commits++;
    };
    auto verifyAll = [&](uint64_t k, const char* phase) {
        std::string err = rig->shadow().verify(rig->kv());
        if (!err.empty())
            fail(strprintf("%s sweep, event index %llu: %s", phase,
                           static_cast<unsigned long long>(k),
                           err.c_str()));
    };

    /**
     * One armed operation at event index k. Returns false once the
     * sweep phase should end (phase quiesced, budget out, or failed).
     */
    auto attempt = [&](uint64_t k, const char* phase, bool isInsert,
                       const std::string& key, const std::string& val,
                       int* quiet) {
        usedOps++;
        res.attempts++;
        rig->sched().arm(k);
        bool crashed = false;
        std::string escaped;
        try {
            escaped = escapeOf([&] {
                if (isInsert)
                    rig->kv().insert(key, val);
                else
                    rig->kv().remove(key);
            });
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        rig->sched().disarm();
        if (!escaped.empty()) {
            fail(strprintf("%s sweep, event index %llu: op %s", phase,
                           static_cast<unsigned long long>(k),
                           escaped.c_str()));
            return;
        }
        if (!crashed) {
            (*quiet)++;
            if (isInsert)
                commitInsert(key, val);
            else
                commitRemove(key);
            verifyAll(k, phase);
            return;
        }
        *quiet = 0;
        res.crashes++;
        res.maxEventIndex = std::max(res.maxEventIndex, k);
        escaped = escapeOf([&] {
            rig->crashAndRecover(cfg.tear, cfg.seed * 1000003 + k,
                                 paramsFor(cfg.seed ^ (k << 20)));
        });
        if (!escaped.empty()) {
            fail(strprintf("%s sweep, event index %llu: recovery %s",
                           phase, static_cast<unsigned long long>(k),
                           escaped.c_str()));
            return;
        }
        if (rig->lastReport().salvageAborted > 0) {
            // Recovery abandoned the interrupted transaction and said
            // so — media damage, or an eliding (zero-fence) log
            // writer whose roll-back is best-effort. The declaration
            // is the contract, exactly as in the media sweep: the
            // abandoned op did not commit, per-image state may
            // disagree with the shadow, and only quarantine
            // integrity still binds. Rebuild a clean rig from the
            // committed history so the *next* attempt is audited
            // strictly again.
            res.declaredAborts++;
            if (rig->heap().quarantineViolation()) {
                fail(strprintf("%s sweep, event index %llu: "
                               "quarantined block resurfaced in the "
                               "free map",
                               phase,
                               static_cast<unsigned long long>(k)));
                return;
            }
            rebuildRig();
            return;
        }
        bool committed = false;
        std::string err = resolveInterrupted(rig->kv(), rig->shadow(),
                                             isInsert, key, val,
                                             &committed);
        if (!err.empty()) {
            fail(strprintf("%s sweep, event index %llu: %s", phase,
                           static_cast<unsigned long long>(k),
                           err.c_str()));
            return;
        }
        if (committed) {
            if (isInsert)
                commitInsert(key, val);
            else
                commitRemove(key);
        }
        verifyAll(k, phase);
    };

    // Committed baseline so sweeps mutate a non-trivial structure.
    // All generated keys are unique within their first 8 bytes:
    // rbtree/skiplist key on keyToU64 (the big-endian first 8 bytes),
    // so longer shared prefixes would alias distinct shadow keys.
    for (int i = 0; i < cfg.baselineKeys && res.passed; i++) {
        std::string key = strprintf("b%07d", i);
        std::string val = valueFor(key, cfg.seed, 20);
        std::string escaped =
            escapeOf([&] { rig->kv().insert(key, val); });
        if (!escaped.empty()) {
            fail("baseline insert " + escaped);
            break;
        }
        commitInsert(key, val);
        usedOps++;
    }

    if (cfg.sweepInsert && res.passed) {
        int quiet = 0;
        for (uint64_t k = 1; quiet < cfg.quietRuns && res.passed; k++) {
            if (!budgetLeft())
                break;
            if (k > cfg.maxIndex) {
                fail("insert sweep did not quiesce (maxIndex hit)");
                break;
            }
            std::string key = strprintf(
                "i%07llu", static_cast<unsigned long long>(k));
            attempt(k, "insert", true, key,
                    valueFor(key, cfg.seed, 20), &quiet);
        }
    }

    if (cfg.sweepUpdate && res.passed) {
        std::string key = "u-target";
        std::string val = valueFor(key, cfg.seed, 20);
        std::string escaped =
            escapeOf([&] { rig->kv().insert(key, val); });
        if (escaped.empty()) {
            commitInsert(key, val);
            usedOps++;
        } else {
            fail("update-target insert " + escaped);
        }
        int quiet = 0;
        for (uint64_t k = 1; quiet < cfg.quietRuns && res.passed; k++) {
            if (!budgetLeft())
                break;
            if (k > cfg.maxIndex) {
                fail("update sweep did not quiesce (maxIndex hit)");
                break;
            }
            // Alternate value sizes: same-size updates stay in place,
            // different-size updates exercise the realloc/reinsert
            // paths of the structures.
            size_t len = (k % 2 == 0) ? 20 : 28;
            attempt(k, "update", true, key,
                    valueFor(key, cfg.seed + k, len), &quiet);
        }
    }

    if (cfg.sweepRemove && res.passed) {
        int quiet = 0;
        for (uint64_t k = 1; quiet < cfg.quietRuns && res.passed; k++) {
            if (!budgetLeft())
                break;
            if (k > cfg.maxIndex) {
                fail("remove sweep did not quiesce (maxIndex hit)");
                break;
            }
            // A fresh committed victim per attempt keeps the swept
            // operation's shape stable while the sweep advances.
            std::string key = strprintf(
                "r%07llu", static_cast<unsigned long long>(k));
            std::string val = valueFor(key, cfg.seed, 20);
            std::string escaped =
                escapeOf([&] { rig->kv().insert(key, val); });
            if (!escaped.empty()) {
                fail("victim insert " + escaped);
                break;
            }
            commitInsert(key, val);
            usedOps++;
            attempt(k, "remove", false, key, val, &quiet);
        }
    }

    // Allocator leak audit: empty the structure, then replay only the
    // committed operations on a fresh rig. Rolled-back operations must
    // have left no persistent allocation behind, so the two allocators
    // must agree byte-for-byte on total free space.
    if (cfg.leakAudit && res.passed) {
        std::vector<std::string> keys;
        for (const auto& [k, v] : rig->shadow().entries())
            keys.push_back(k);
        for (const std::string& k : keys) {
            std::string escaped = escapeOf([&] { rig->kv().remove(k); });
            if (!escaped.empty()) {
                fail("cleanup remove " + escaped);
                break;
            }
            commitRemove(k);
            usedOps++;
        }
        if (res.passed) {
            verifyAll(0, "cleanup");
            TortureRig ref(kind, structure);
            std::string escaped = escapeOf([&] {
                for (const CommittedOp& op : history) {
                    if (op.isInsert)
                        ref.kv().insert(op.key, op.val);
                    else
                        ref.kv().remove(op.key);
                }
            });
            if (!escaped.empty())
                fail("leak-audit replay " + escaped);
            if (res.passed &&
                ref.heap().freeBytes() != rig->heap().freeBytes()) {
                fail(strprintf(
                    "allocator leak: %zu free bytes after crashes vs "
                    "%zu after crash-free replay of the %zu committed "
                    "ops",
                    rig->heap().freeBytes(), ref.heap().freeBytes(),
                    history.size()));
            }
        }
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

    for (uint64_t k = cfg.startIndex; quiet < cfg.quietRuns && res.passed;
         k++) {
        if (cfg.budget != 0 && res.cases >= cfg.budget) {
            res.truncated = true;
            break;
        }
        if (k > cfg.maxIndex) {
            fail(k, "media sweep did not quiesce (maxIndex hit)");
            break;
        }
        // Every case is a fresh rig: faults from one case must never
        // bleed into the next, and a failing index replays exactly.
        TortureRig rig(kind, structure, cfg.poolBytes);
        rig.setRecoveryMode(cfg.recovery);
        FaultSpec fs = cfg.faults;
        fs.enabled = true;
        fs.seed = cfg.seed * 0x9e3779b97f4a7c15ULL + k;
        rig.enableFaults(fs);

        // Committed baseline. Injection only fires on tears, so these
        // crash-free inserts populate deterministically.
        bool ok = true;
        for (int i = 0; ok && i < cfg.baselineKeys; i++) {
            std::string key = strprintf("b%07d", i);
            std::string val = valueFor(key, cfg.seed, 20);
            std::string escaped =
                escapeOf([&] { rig.kv().insert(key, val); });
            if (!escaped.empty()) {
                fail(k, "baseline insert " + escaped);
                ok = false;
                break;
            }
            rig.shadow().noteInsert(key, val);
        }
        if (!ok)
            break;

        // One armed mutating op, shape cycling with the index so the
        // sweep crosses insert, in-place/resize update and remove.
        unsigned shape = cfg.baselineKeys >= 2 ? k % 3 : 1;
        bool isInsert = true;
        std::string key, val;
        switch (shape) {
          case 0:  // update an existing key (size change)
            key = "b0000000";
            val = valueFor(key, cfg.seed + k, 28);
            break;
          case 1:  // fresh insert
            key = strprintf("m%07llu",
                            static_cast<unsigned long long>(k));
            val = valueFor(key, cfg.seed, 20);
            break;
          default:  // remove a committed victim
            isInsert = false;
            key = "b0000001";
            break;
        }
        res.cases++;
        rig.sched().arm(k);
        bool crashed = false;
        std::string escaped;
        try {
            escaped = escapeOf([&] {
                if (isInsert)
                    rig.kv().insert(key, val);
                else
                    rig.kv().remove(key);
            });
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        rig.sched().disarm();
        if (!escaped.empty()) {
            fail(k, "armed op " + escaped);
            break;
        }
        if (!crashed) {
            quiet++;
            if (isInsert)
                rig.shadow().noteInsert(key, val);
            else
                rig.shadow().noteRemove(key);
            std::string err = rig.shadow().verify(rig.kv());
            if (!err.empty())
                fail(k, strprintf("crash-free case: %s", err.c_str()));
            continue;
        }
        quiet = 0;
        res.crashes++;
        escaped = escapeOf([&] {
            rig.crashAndRecover(cfg.tear, cfg.seed * 1000003 + k,
                                paramsFor(cfg.seed ^ (k << 20)),
                                cfg.faults.duringRecoveryRounds);
        });
        if (!escaped.empty()) {
            fail(k, "recovery " + escaped);
            break;
        }
        // Declared or not, quarantined blocks must never resurface in
        // the allocator's free map.
        if (rig.heap().quarantineViolation()) {
            fail(k, "quarantined block resurfaced in the free map");
            break;
        }
        const txn::RecoveryReport& rep = rig.lastReport();
        if (rep.salvageAborted == 0) {
            // Recovery claims full repair — the full oracle binds,
            // exactly as in the plain crash sweeps. A protocol that
            // cannot detect media damage (nolog) always lands here,
            // and honestly fails.
            res.strictAudits++;
            bool committed = false;
            std::string err = resolveInterrupted(
                rig.kv(), rig.shadow(), isInsert, key, val, &committed);
            if (err.empty()) {
                if (committed) {
                    if (isInsert)
                        rig.shadow().noteInsert(key, val);
                    else
                        rig.shadow().noteRemove(key);
                }
                err = rig.shadow().verify(rig.kv());
            }
            if (!err.empty()) {
                fail(k, strprintf("strict audit (no salvage "
                                  "declared): %s",
                                  err.c_str()));
                break;
            }
        } else {
            // Damage was detected and declared: the abandoned
            // transaction's effects are undefined (clobber cannot
            // un-write blind stores it could not restore), so per-key
            // state may legitimately disagree with the shadow. What
            // must still hold was checked above (quarantine
            // integrity) and below: probing must never crash the
            // recovered process. Everything else is counted as
            // declared collateral, not failure.
            res.relaxedAudits++;
            res.salvageAborts += rep.salvageAborted;
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
            std::string sk = strprintf(
                "s%07llu", static_cast<unsigned long long>(k));
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
    }
    return res;
}

namespace {

/** Oracle mismatch detected while a fuzz history is executing. */
struct OracleMismatch {
    std::string msg;
};

/** One scheduled fuzz operation. */
struct FuzzOp {
    enum Type : uint8_t { insert, remove, lookup };
    Type type;
    std::string key;
    std::string val;
};

std::vector<std::vector<FuzzOp>>
buildSchedule(const FuzzCase& c, const FuzzConfig& cfg,
              unsigned threads)
{
    std::vector<std::vector<FuzzOp>> sched(threads);
    Xorshift rng(c.seed);
    for (unsigned t = 0; t < threads; t++) {
        Zipfian zipf(std::max<uint64_t>(cfg.keySpace, 1), 0.99,
                     c.seed * 131 + t);
        sched[t].reserve(c.nOps);
        for (uint32_t i = 0; i < c.nOps; i++) {
            FuzzOp op;
            std::string key = strprintf(
                "k%05llu",
                static_cast<unsigned long long>(zipf.next()));
            uint64_t dice = rng.nextUint(100);
            if (dice < 55) {
                op.type = FuzzOp::insert;
                op.val = valueFor(key, rng.next(),
                                  8 + rng.nextUint(33));
            } else if (dice < 80) {
                op.type = FuzzOp::remove;
            } else {
                op.type = FuzzOp::lookup;
            }
            op.key = std::move(key);
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
        FaultSpec fs = cfg.faults;
        fs.seed = cfg.faults.seed * 0x9e3779b97f4a7c15ULL +
                  c.seed * 131 + c.crashAt;
        rig.enableFaults(fs);
    }
    unsigned threads = std::min(std::max(cfg.threads, 1u),
                                rig.pool().maxThreads());
    auto sched = buildSchedule(c, cfg, threads);

    // Execution bookkeeping so an interrupted history can continue
    // after recovery: ops completed per thread, plus the in-flight op.
    std::vector<uint32_t> done(threads, 0);
    const FuzzOp* inFlight = nullptr;

    auto applyOne = [&](unsigned tid, const FuzzOp& op) {
        inFlight = &op;
        switch (op.type) {
          case FuzzOp::insert:
            rig.kv().insert(op.key, op.val);
            rig.shadow().noteInsert(op.key, op.val);
            break;
          case FuzzOp::remove:
            rig.kv().remove(op.key);
            rig.shadow().noteRemove(op.key);
            break;
          case FuzzOp::lookup: {
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
            break;
          }
        }
        inFlight = nullptr;
        res.opsExecuted++;
    };

    if (c.crashAt != 0)
        rig.sched().arm(c.crashAt);
    bool crashed = false;
    try {
        std::string escaped = escapeOf([&] {
            sim::Executor ex(threads);
            ex.run(c.nOps, [&](sim::ThreadCtx& ctx, size_t i) {
                applyOne(ctx.tid(), sched[ctx.tid()][i]);
                done[ctx.tid()] = static_cast<uint32_t>(i) + 1;
            });
        });
        if (!escaped.empty())
            res.failure = "history " + escaped;
    } catch (const nvm::CrashInjected&) {
        crashed = true;
    } catch (const OracleMismatch& m) {
        res.failure = m.msg;
    }
    rig.sched().disarm();
    res.events = rig.sched().eventCount();
    res.crashed = crashed;
    if (!res.failure.empty())
        return res;

    if (crashed) {
        const FuzzOp* op = inFlight;
        std::string escaped = escapeOf([&] {
            rig.crashAndRecover(cfg.tear,
                                c.seed ^ (c.crashAt * 2654435761ULL),
                                paramsFor(c.seed + c.crashAt),
                                cfg.faults.enabled
                                    ? cfg.faults.duringRecoveryRounds
                                    : 0);
        });
        if (!escaped.empty()) {
            res.failure = "recovery " + escaped;
            return res;
        }
        if (rig.lastReport().salvageAborted > 0) {
            // Damage was detected and declared: the shadow oracle no
            // longer binds for this history. Audit what must still
            // hold — quarantine integrity — and end the case here;
            // the declaration is the contract. (No structural probe:
            // under an eliding log writer the abandoned image may
            // hold arbitrarily torn pointers, and even a read-only
            // walk can loop. A real deployment re-creates the
            // structure from its committed state, which is exactly
            // what the next case's fresh rig does.)
            if (rig.heap().quarantineViolation()) {
                res.failure =
                    "quarantined block resurfaced in the free map";
                return res;
            }
            return res;
        }
        if (op != nullptr && op->type != FuzzOp::lookup) {
            bool committed = false;
            res.failure = resolveInterrupted(
                rig.kv(), rig.shadow(), op->type == FuzzOp::insert,
                op->key, op->val, &committed);
            if (!res.failure.empty())
                return res;
            if (committed) {
                if (op->type == FuzzOp::insert)
                    rig.shadow().noteInsert(op->key, op->val);
                else
                    rig.shadow().noteRemove(op->key);
            }
        }
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
        FuzzCase dryCase{cfg.baseSeed + caseIdx, cfg.opsPerCase, 0};
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
