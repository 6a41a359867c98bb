#include "cir/analysis.h"

#include "common/error.h"

namespace cnvm::cir {

AliasAnalysis::AliasAnalysis(const Function& f) : info_(f.numValues())
{
    for (const auto& block : f.blocks()) {
        for (const auto& instr : block.instrs) {
            if (instr.result == kNoValue)
                continue;
            PtrInfo& pi = info_[instr.result];
            switch (instr.op) {
              case Op::arg:
                pi.base = Base::param;
                pi.param = numParams_++;
                break;
              case Op::alloca_: pi.base = Base::alloca_; break;
              case Op::malloc_: pi.base = Base::fresh; break;
              case Op::load: pi.base = Base::loaded; break;
              case Op::gep: {
                const PtrInfo& base = info_[instr.value];
                pi = base;
                if (instr.offset < 0 || !base.offsetKnown) {
                    pi.offsetKnown = false;
                } else {
                    pi.offset = base.offset + instr.offset;
                }
                continue;
              }
              default: continue;  // call results, scalars: unknown
            }
            // A base object of its own, at offset 0.
            pi.root = instr.result;
            pi.offsetKnown = true;
        }
    }
}

Alias
AliasAnalysis::alias(ValueId p, ValueId q) const
{
    if (p == q)
        return Alias::must;
    const PtrInfo& a = info_[p];
    const PtrInfo& b = info_[q];

    if (a.base == Base::unknown || b.base == Base::unknown)
        return Alias::may;

    if (a.root == b.root) {
        if (a.offsetKnown && b.offsetKnown) {
            return a.offset == b.offset ? Alias::must : Alias::no;
        }
        return Alias::may;
    }

    // Distinct fresh objects (stack or heap) never alias anything
    // pre-existing, nor each other.
    auto fresh = [](Base k) {
        return k == Base::alloca_ || k == Base::fresh;
    };
    if (fresh(a.base) && (fresh(b.base) || b.base == Base::param))
        return Alias::no;
    if (fresh(b.base) && a.base == Base::param)
        return Alias::no;

    // param-vs-param, param-vs-loaded, loaded-vs-loaded,
    // fresh-vs-loaded (a loaded pointer could point into a
    // just-published fresh object): may alias.
    return Alias::may;
}

Dominators::Dominators(const Function& f) : f_(f)
{
    auto n = static_cast<int>(f.blocks().size());
    CNVM_CHECK(n > 0, "empty function");

    // Iterative dominator dataflow: dom(b) = {b} U intersect(preds).
    std::vector<std::vector<int>> preds(n);
    for (int b = 0; b < n; b++) {
        for (int s : f.blocks()[b].succs)
            preds[s].push_back(b);
    }
    dom_.assign(n, std::vector<bool>(n, true));
    dom_[0].assign(n, false);
    dom_[0][0] = true;
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = 1; b < n; b++) {
            std::vector<bool> next(n, preds[b].empty() ? false : true);
            for (int p : preds[b]) {
                for (int i = 0; i < n; i++)
                    next[i] = next[i] && dom_[p][i];
            }
            next[b] = true;
            if (next != dom_[b]) {
                dom_[b] = next;
                changed = true;
            }
        }
    }

    // Post-dominators, by the same dataflow over the reversed CFG:
    // pdom(b) = {b} U intersect(succs), seeded at the exit blocks.
    pdom_.assign(n, std::vector<bool>(n, true));
    for (int b = 0; b < n; b++) {
        if (f.isExit(b)) {
            pdom_[b].assign(n, false);
            pdom_[b][b] = true;
        }
    }
    changed = true;
    while (changed) {
        changed = false;
        for (int b = n - 1; b >= 0; b--) {
            if (f.isExit(b))
                continue;
            std::vector<bool> next(n, true);
            for (int s : f.blocks()[b].succs) {
                for (int i = 0; i < n; i++)
                    next[i] = next[i] && pdom_[s][i];
            }
            next[b] = true;
            if (next != pdom_[b]) {
                pdom_[b] = next;
                changed = true;
            }
        }
    }

    // Block reachability closure (including cycles back to self).
    reach_.assign(n, std::vector<bool>(n, false));
    for (int b = 0; b < n; b++) {
        std::vector<int> stack{b};
        std::vector<bool> seen(n, false);
        while (!stack.empty()) {
            int cur = stack.back();
            stack.pop_back();
            for (int s : f.blocks()[cur].succs) {
                if (!reach_[b][s]) {
                    reach_[b][s] = true;
                    if (!seen[s]) {
                        seen[s] = true;
                        stack.push_back(s);
                    }
                }
            }
        }
    }
}

bool
Dominators::blockDominates(int a, int b) const
{
    return dom_[b][a];
}

bool
Dominators::dominates(const InstrRef& a, const InstrRef& b) const
{
    if (a.block == b.block)
        return a.index < b.index;
    return blockDominates(a.block, b.block);
}

bool
Dominators::blockPostDominates(int a, int b) const
{
    return pdom_[b][a];
}

bool
Dominators::mayFollow(const InstrRef& a, const InstrRef& b) const
{
    if (a.block == b.block && a.index < b.index)
        return true;
    return reach_[a.block][b.block];
}

bool
Dominators::alwaysFollows(const InstrRef& a, const InstrRef& b) const
{
    // Within a block, execution runs to the block's end: everything
    // after a executes.
    if (a.block == b.block)
        return b.index > a.index;
    return blockPostDominates(b.block, a.block);
}

}  // namespace cnvm::cir
