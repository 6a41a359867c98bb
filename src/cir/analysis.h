/**
 * @file
 * Analyses backing the clobber-write identification pass: points-to
 * style alias analysis, dominator tree, and reachability — the
 * "classic alias analysis" and dominance reasoning of paper
 * Section 4.4.
 */
#ifndef CNVM_CIR_ANALYSIS_H
#define CNVM_CIR_ANALYSIS_H

#include <vector>

#include "cir/ir.h"

namespace cnvm::cir {

/** Alias-query verdict, as in LLVM's AliasResult. */
enum class Alias { no, may, must };

/** What a pointer value is based on. */
enum class Base {
    param,    ///< a function parameter (Op::arg)
    alloca_,  ///< stack storage: volatile, private to the call
    fresh,    ///< a heap allocation (Op::malloc_) made in the function
    /** A pointer loaded from memory: its target is unknown, but the
        same SSA value names the same target. */
    loaded,
    unknown,  ///< call results and arithmetic
};

/**
 * The one pointer model of the compiler analyses. Flow-insensitively,
 * every pointer value reduces to a base object (its root value and
 * Base kind) plus an offset, following gep chains; offset 0 is the
 * plain pointer-copy idiom of this IR. The clobber pass and the
 * persistency lint ask it for alias verdicts; the call summaries and
 * the re-execution verifier ask it which parameter or stack slot a
 * pointer reaches (they treat loaded and unknown pointers alike, as
 * memory the function cannot name).
 */
class AliasAnalysis {
 public:
    explicit AliasAnalysis(const Function& f);

    /** Relationship between the targets of two pointer values. */
    Alias alias(ValueId p, ValueId q) const;

    Base base(ValueId v) const { return info_[v].base; }
    /** Positional parameter index; valid when base() == param. */
    int paramIndex(ValueId v) const { return info_[v].param; }
    /** The arg, alloca, malloc or load defining the base object. */
    ValueId root(ValueId v) const { return info_[v].root; }
    /** Number of Op::arg instructions, in program order. */
    int numParams() const { return numParams_; }

    /**
     * True iff the pointer provably targets stack (alloca) storage —
     * volatile memory that needs no flush/fence discipline.
     */
    bool basedOnAlloca(ValueId p) const { return base(p) == Base::alloca_; }

 private:
    struct PtrInfo {
        Base base = Base::unknown;
        int param = -1;
        ValueId root = kNoValue;
        int64_t offset = 0;
        bool offsetKnown = false;
    };

    std::vector<PtrInfo> info_;
    int numParams_ = 0;
};

/** Dominator relation over blocks and instructions. */
class Dominators {
 public:
    explicit Dominators(const Function& f);

    bool blockDominates(int a, int b) const;

    /** True iff every path from b to an exit (Function::isExit)
        passes through a. */
    bool blockPostDominates(int a, int b) const;

    /** True iff instruction a executes on every path before b. */
    bool dominates(const InstrRef& a, const InstrRef& b) const;

    /** True iff b may execute after a on some path. */
    bool mayFollow(const InstrRef& a, const InstrRef& b) const;

    /**
     * True iff once a has executed, b executes before the function
     * ends, on every path (the post-dominance analogue of
     * dominates()). Used by the persistency checker to prove a store
     * is always flushed and a flush is always fenced.
     */
    bool alwaysFollows(const InstrRef& a, const InstrRef& b) const;

 private:
    const Function& f_;
    std::vector<std::vector<bool>> dom_;    ///< dom_[b][a]: a dom b
    std::vector<std::vector<bool>> pdom_;   ///< pdom_[b][a]: a pdom b
    std::vector<std::vector<bool>> reach_;  ///< reach_[a][b]
};

}  // namespace cnvm::cir

#endif  // CNVM_CIR_ANALYSIS_H
