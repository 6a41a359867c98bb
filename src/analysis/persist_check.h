/**
 * @file
 * Static persistency lint over cir functions.
 *
 * The clobber pass (src/cir/clobber_pass.h) proves which stores need
 * logging; this pass audits the *other* invariants every runtime
 * silently relies on, using the same alias + dominator machinery:
 *
 *  (a) missingFlush — an NVM store with no must-aliasing flush on the
 *      path to transaction end (error if no path flushes it, warning
 *      if only some paths do);
 *  (b) missingFence — a flush never ordered by a fence before the
 *      transaction ends (error / warning as above);
 *  (c) doubleFlush — a flush of a line already flushed with no
 *      re-dirtying store in between (perf diagnostic, warning);
 *  (d) unloggedClobber — a store the clobber pass marks as a refined
 *      clobber site that carries no dominating clobber_log
 *      instrumentation (error), plus the reverse, a clobber_log that
 *      covers no site (info).
 *
 * instrumentPersistency() is the emission step the compiler would
 * perform: given a function and its clobber analysis it inserts
 * clobber_log before each refined site, a flush after every NVM
 * store, and a fence at every exit — checkPersistency() of the result
 * is clean by construction, which is exactly what cnvm_lint verifies
 * for every registered benchmark function.
 */
#ifndef CNVM_ANALYSIS_PERSIST_CHECK_H
#define CNVM_ANALYSIS_PERSIST_CHECK_H

#include <string>
#include <vector>

#include "cir/analysis.h"
#include "cir/clobber_pass.h"
#include "cir/ir.h"

namespace cnvm::analysis {

enum class Severity { info, warning, error };

enum class CheckKind {
    missingFlush,
    missingFence,
    doubleFlush,
    unloggedClobber,
    unneededClobberLog,
    // Re-execution safety (reexec_check.h), interprocedural:
    nondetInTx,      ///< nondeterministic op reachable in the body
    ioInTx,          ///< I/O side effect reachable in the body
    volatileEscape,  ///< volatile store observable outside the FASE
    hiddenClobber,   ///< callee clobbers caller memory unlogged
};

const char* severityName(Severity s);
const char* checkKindName(CheckKind k);

struct Violation {
    CheckKind kind;
    Severity severity;
    cir::InstrRef at;
    std::string detail;
    std::string hint;    ///< fix-it suggestion (may be empty)
    std::string callee;  ///< call target, for call-derived findings

    /** The call target the finding names: `callee`, else the callee
        of a call at `at` in `f`; empty for a non-call finding. */
    std::string calleeIn(const cir::Function& f) const;
};

/** A finding at `at`; `callee` is empty unless it derives from a
    call. */
Violation violation(CheckKind kind, Severity severity, cir::InstrRef at,
                    std::string callee, std::string detail,
                    std::string hint = "");

struct PersistReport {
    std::vector<Violation> violations;
    int storesChecked = 0;
    int flushesChecked = 0;
    int clobberSitesChecked = 0;
    int callsChecked = 0;

    /** No error-severity findings (warnings/info may remain). */
    bool clean() const;
    int count(Severity s) const;
    int count(CheckKind k) const;
    bool has(CheckKind k) const;

    /** One-line headline (like ClobberResult::summary). */
    std::string summary(const cir::Function& f) const;
    /** Multi-line listing of every violation. */
    std::string toString(const cir::Function& f) const;
};

/** Run all four checks over (an instrumented) function. */
PersistReport checkPersistency(const cir::Function& f);

/**
 * Summary-aware variant: helper calls participate in every audit.
 * A callee that writes through an argument without flushing it makes
 * the call site a store needing a caller-side flush; a callee that
 * flushes its argument acts as a flush point (fenced already when
 * the callee fences on exit); a callee that fences on exit acts as a
 * fence; clobber sites come from the interprocedural clobber pass,
 * so a call whose callee clobbers its argument needs the callee (or
 * a dominating caller-side clobber_log) to log it. Passing nullptr
 * reproduces the intraprocedural behavior exactly.
 */
PersistReport checkPersistency(const cir::Function& f,
                               const cir::ModuleSummaries* sums);

/**
 * Compiler-side emission: insert clobber_log before every refined
 * site of `res`, a flush after every NVM store, and a fence at each
 * exit block. Value numbering is preserved (the inserted intrinsics
 * define no SSA values), so `res` computed on `f` remains valid for
 * the returned function's stores.
 */
cir::Function instrumentPersistency(const cir::Function& f,
                                    const cir::ClobberResult& res);

}  // namespace cnvm::analysis

#endif  // CNVM_ANALYSIS_PERSIST_CHECK_H
