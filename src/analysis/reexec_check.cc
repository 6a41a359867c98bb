#include "analysis/reexec_check.h"

#include "cir/analysis.h"

namespace cnvm::analysis {

using cir::Alias;
using cir::AliasAnalysis;
using cir::Base;
using cir::Dominators;
using cir::Function;
using cir::FunctionSummary;
using cir::Instr;
using cir::InstrRef;
using cir::Op;
using cir::ValueId;

PersistReport
checkReexecSafety(const Function& f, const cir::ModuleSummaries& sums)
{
    PersistReport out;
    AliasAnalysis aa(f);
    Dominators dom(f);

    // Escaped stack slots: their stores are volatile state other
    // code can observe between the crash and the replay.
    std::vector<bool> escaped = cir::escapedAllocas(f, aa, sums);

    // Caller-side clobber_log points, for discharging (d) at the
    // call site.
    auto clogs = f.collect(
        [](const Instr& i) { return i.op == Op::clobberlog; });

    for (int b = 0; b < static_cast<int>(f.blocks().size()); b++) {
        const auto& instrs = f.blocks()[b].instrs;
        for (int i = 0; i < static_cast<int>(instrs.size()); i++) {
            const Instr& in = instrs[i];
            InstrRef at{b, i};

            // (c) intra-function: a store to an escaped stack slot.
            if (in.op == Op::store && aa.basedOnAlloca(in.ptr) &&
                escaped[aa.root(in.ptr)]) {
                out.violations.push_back(violation(
                    CheckKind::volatileEscape, Severity::error, at, "",
                    "store to a stack slot whose address escapes "
                    "the FASE; replay double-applies it",
                    "keep the slot private to the transaction, or "
                    "move the state to NVM and log it"));
            }

            if (in.op != Op::call)
                continue;
            out.callsChecked++;
            FunctionSummary cs = sums.callSummary(in);
            bool resolved = sums.lookup(in.callee) != nullptr;

            // (a) determinism crosses every call path: the summary
            // already folds transitive callees.
            if (!cs.deterministic) {
                out.violations.push_back(violation(
                    CheckKind::nondetInTx, Severity::error, at,
                    in.callee,
                    resolved
                        ? "callee reaches a nondeterministic "
                          "operation; replay would diverge"
                        : "declared nondeterministic; replay would "
                          "diverge",
                    "hoist the nondeterministic value out of the "
                    "FASE and pass it in as a transaction "
                    "argument"));
            }

            // (b) I/O reachable in the body.
            if (cs.doesIO) {
                out.violations.push_back(violation(
                    CheckKind::ioInTx, Severity::error, at,
                    in.callee,
                    "callee performs (or reaches) I/O; replay "
                    "would issue it twice",
                    "move the I/O after commit, or stage it in "
                    "logged NVM state and drain it post-commit"));
            }

            // (c) volatile state written somewhere down the chain.
            if (cs.volatileEscape) {
                out.violations.push_back(violation(
                    CheckKind::volatileEscape, Severity::error, at,
                    in.callee,
                    "callee writes volatile state observable "
                    "outside the FASE; replay double-applies it",
                    "make the update transaction-local, or move "
                    "the location to NVM so it is logged and "
                    "replayed consistently"));
            }

            // (d) hidden clobbers: the callee may overwrite caller
            // memory it also read, without logging the old value.
            cir::forEachArgEffect(in, cs, [&](ValueId a,
                                              const cir::ArgEffect& eff) {
                if (!eff.clobbered || eff.logged)
                    return;
                // Fresh and stack objects are transaction-local:
                // replay reconstructs them, no logging needed.
                if (aa.base(a) == Base::fresh || aa.basedOnAlloca(a))
                    return;
                // A caller-side clobber_log of the same pointer
                // dominating the call discharges the finding.
                for (const auto& c : clogs) {
                    if (aa.alias(f.at(c).ptr, a) == Alias::must &&
                        dom.dominates(c, at))
                        return;
                }
                out.violations.push_back(violation(
                    CheckKind::hiddenClobber, Severity::error, at,
                    in.callee,
                    resolved
                        ? "callee may overwrite an input it read "
                          "through this argument without logging "
                          "the old value"
                        : "external callee declared writes-nvm; "
                          "cannot prove it logs what it "
                          "overwrites",
                    resolved
                        ? "clobber_log the location in the callee "
                          "before its store, or clobber_log the "
                          "argument before the call"
                        : "define the callee in the module so its "
                          "body can be verified, or clobber_log "
                          "the argument before the call"));
            });
        }
    }
    return out;
}

}  // namespace cnvm::analysis
