/**
 * @file
 * Interprocedural analysis framework: call graph + bottom-up
 * per-function effect summaries.
 *
 * The clobber pass and the persistency lint were intraprocedural —
 * Op::call used to be opaque — so any helper call made them blind.
 * This module computes, for every function in a compilation unit, a
 * conservative summary of what the function may do to memory
 * reachable from each pointer parameter (mod/ref, hidden clobbers,
 * clobber_log / flush coverage, escapes) plus whole-function verdicts
 * (determinism, I/O, escaping volatile writes, exit fencing).
 *
 * Summaries are computed by an optimistic fixpoint: every function
 * starts with the bottom summary (no effects, deterministic) and
 * effects accumulate monotonically until nothing changes, which
 * handles recursion and mutual recursion soundly (least fixed point
 * of a monotone transfer). Calls to symbols not defined in the module
 * fall back to the conservative meaning of their declared
 * cir::Effect class.
 */
#ifndef CNVM_CIR_SUMMARIES_H
#define CNVM_CIR_SUMMARIES_H

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cir/analysis.h"
#include "cir/ir.h"

namespace cnvm::cir {

/** What a function may do to memory reachable from one parameter. */
struct ArgEffect {
    bool read = false;       ///< may load through it (input read)
    bool written = false;    ///< may store through it
    bool clobbered = false;  ///< may overwrite memory it also reads
    bool logged = false;     ///< clobber_log through it on some path
    bool flushed = false;    ///< flush through it on some path
    bool escapes = false;    ///< the pointer is stored into memory

    bool operator==(const ArgEffect&) const = default;
};

/** Conservative whole-function effect summary. */
struct FunctionSummary {
    std::string name;
    int numParams = 0;
    std::vector<ArgEffect> params;
    bool readsUnknown = false;   ///< loads through non-param bases
    bool writesUnknown = false;  ///< stores through non-param bases
    /** Writes volatile state observable outside the function: a
        store through an escaping alloca, or any reachable call with
        declared Effect::volatileWrite. */
    bool volatileEscape = false;
    bool deterministic = true;  ///< no nondet effect on any path
    bool doesIO = false;        ///< reaches an Effect::io call
    /** Every exit path ends in (or calls into) an sfence, so the
        caller need not fence after the call. */
    bool fencesOnExit = false;
    bool callsUnknown = false;  ///< calls a symbol not in the module

    bool operator==(const FunctionSummary&) const = default;
};

/**
 * Call-graph + summary store for one compilation unit (a set of
 * functions analyzed together; callees resolve by symbol name).
 */
class ModuleSummaries {
 public:
    explicit ModuleSummaries(const std::vector<Function>& fns);

    /** Summary of a defined function, or nullptr if unresolved. */
    const FunctionSummary* lookup(const std::string& callee) const;

    /** Summary for a call instruction: the callee's computed
        summary if defined in the module, else the conservative
        meaning of the call's declared effect class. */
    FunctionSummary callSummary(const Instr& call) const;

    /** Conservative summary implied by a declared effect class for
        an external callee taking `numParams` arguments. */
    static FunctionSummary declaredSummary(Effect e, int numParams);

    /** Direct callees of `f` present in the module (call-graph
        edge list; unresolved callees are omitted). */
    std::vector<std::string> callees(const Function& f) const;

    /** Fixpoint iterations taken (diagnostics / tests). */
    int iterations() const { return iterations_; }

 private:
    /** One monotone transfer step for `f`. During the fixpoint its
        calls resolve against the in-progress summaries, so a function
        sees those updated earlier in the same round. */
    FunctionSummary transfer(const Function& f) const;

    std::map<std::string, FunctionSummary> sums_;
    int iterations_ = 0;
};

/**
 * The call-effect walk: fn(arg, effect) for each non-null argument of
 * `call` that `callee`'s summary describes. Arguments past the
 * callee's parameter list carry no effect and are skipped.
 */
template <typename Fn>
void
forEachArgEffect(const Instr& call, const FunctionSummary& callee, Fn&& fn)
{
    size_t n = std::min(call.args.size(), callee.params.size());
    for (size_t j = 0; j < n; j++) {
        if (call.args[j] != kNoValue)
            fn(call.args[j], callee.params[j]);
    }
}

/**
 * The stack slots of `f` whose address escapes: stored into memory, or
 * passed to a callee whose summary lets that parameter escape. A store
 * to such a slot is volatile state observable outside the function.
 * @return one flag per value id, set on each escaping alloca.
 */
std::vector<bool> escapedAllocas(const Function& f,
                                 const AliasAnalysis& aa,
                                 const ModuleSummaries& sums);

}  // namespace cnvm::cir

#endif  // CNVM_CIR_SUMMARIES_H
