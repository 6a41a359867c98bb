#include "cir/summaries.h"

#include <set>

#include "common/error.h"

namespace cnvm::cir {

std::vector<bool>
escapedAllocas(const Function& f, const AliasAnalysis& aa,
               const ModuleSummaries& sums)
{
    std::vector<bool> out(f.numValues(), false);
    auto escape = [&](ValueId v) {
        if (aa.basedOnAlloca(v))
            out[aa.root(v)] = true;
    };
    for (const auto& block : f.blocks()) {
        for (const auto& instr : block.instrs) {
            if (instr.op == Op::store && instr.value != kNoValue)
                escape(instr.value);
            if (instr.op != Op::call)
                continue;
            forEachArgEffect(instr, sums.callSummary(instr),
                             [&](ValueId a, const ArgEffect& eff) {
                                 if (eff.escapes)
                                     escape(a);
                             });
        }
    }
    return out;
}

FunctionSummary
ModuleSummaries::transfer(const Function& f) const
{
    AliasAnalysis aa(f);
    std::vector<bool> escaped = escapedAllocas(f, aa, *this);
    FunctionSummary out;
    out.name = f.name();
    out.numParams = aa.numParams();
    out.params.resize(out.numParams);

    auto paramOf = [&](ValueId v) -> ArgEffect* {
        return aa.base(v) == Base::param ? &out.params[aa.paramIndex(v)]
                                         : nullptr;
    };
    // Loaded and call-returned pointers reach memory the function
    // cannot name; fresh objects are local.
    auto unknownMem = [&](ValueId v) {
        return aa.base(v) == Base::loaded || aa.base(v) == Base::unknown;
    };
    auto escapedSlot = [&](ValueId v) {
        return aa.basedOnAlloca(v) && escaped[aa.root(v)];
    };

    for (const auto& block : f.blocks()) {
        for (const auto& instr : block.instrs) {
            switch (instr.op) {
              case Op::load:
                if (ArgEffect* p = paramOf(instr.ptr))
                    p->read = true;
                else if (unknownMem(instr.ptr))
                    out.readsUnknown = true;
                break;
              case Op::store:
                if (ArgEffect* p = paramOf(instr.ptr))
                    p->written = true;
                else if (unknownMem(instr.ptr))
                    out.writesUnknown = true;
                else if (escapedSlot(instr.ptr))
                    out.volatileEscape = true;
                if (instr.value != kNoValue) {
                    if (ArgEffect* p = paramOf(instr.value))
                        p->escapes = true;
                }
                break;
              case Op::clobberlog:
                if (ArgEffect* p = paramOf(instr.ptr))
                    p->logged = true;
                break;
              case Op::flush:
                if (ArgEffect* p = paramOf(instr.ptr))
                    p->flushed = true;
                break;
              case Op::call: {
                FunctionSummary cs = callSummary(instr);
                out.callsUnknown = out.callsUnknown ||
                                   !lookup(instr.callee) ||
                                   cs.callsUnknown;
                out.deterministic = out.deterministic && cs.deterministic;
                out.doesIO = out.doesIO || cs.doesIO;
                out.volatileEscape = out.volatileEscape || cs.volatileEscape;
                out.readsUnknown = out.readsUnknown || cs.readsUnknown;
                out.writesUnknown = out.writesUnknown || cs.writesUnknown;
                forEachArgEffect(instr, cs, [&](ValueId a,
                                                const ArgEffect& eff) {
                    if (ArgEffect* p = paramOf(a)) {
                        p->read = p->read || eff.read;
                        p->written = p->written || eff.written;
                        p->clobbered = p->clobbered || eff.clobbered;
                        p->logged = p->logged || eff.logged;
                        p->flushed = p->flushed || eff.flushed;
                        p->escapes = p->escapes || eff.escapes;
                    } else if (unknownMem(a)) {
                        out.readsUnknown = out.readsUnknown || eff.read;
                        out.writesUnknown = out.writesUnknown || eff.written;
                    } else if (eff.written && escapedSlot(a)) {
                        out.volatileEscape = true;
                    }
                });
                break;
              }
              default: break;
            }
        }
    }

    // A parameter the function may both read and overwrite carries a
    // potential hidden clobber: conservatively flow-insensitive (a
    // dominating write would discharge it, but the caller cannot see
    // paths, so we keep the bit and let `logged` excuse it).
    for (auto& p : out.params)
        p.clobbered = p.clobbered || (p.read && p.written);

    // fencesOnExit: every exit block contains a fence, or calls a
    // function that itself fences on exit.
    bool anyExit = false;
    bool allFenced = true;
    for (int b = 0; b < static_cast<int>(f.blocks().size()); b++) {
        if (!f.isExit(b))
            continue;
        anyExit = true;
        bool fenced = false;
        for (const auto& instr : f.blocks()[b].instrs) {
            fenced = fenced || instr.op == Op::fence ||
                     (instr.op == Op::call &&
                      callSummary(instr).fencesOnExit);
        }
        allFenced = allFenced && fenced;
    }
    out.fencesOnExit = anyExit && allFenced;
    return out;
}

ModuleSummaries::ModuleSummaries(const std::vector<Function>& fns)
{
    for (const auto& f : fns) {
        FunctionSummary& bottom = sums_[f.name()];
        bottom.name = f.name();
        bottom.numParams = AliasAnalysis(f).numParams();
        bottom.params.assign(bottom.numParams, ArgEffect{});
    }
    constexpr int kMaxIterations = 64;
    bool changed = true;
    while (changed) {
        CNVM_CHECK(iterations_ < kMaxIterations,
                   "summary fixpoint diverged");
        iterations_++;
        changed = false;
        for (const auto& f : fns) {
            FunctionSummary next = transfer(f);
            FunctionSummary& cur = sums_[f.name()];
            if (!(next == cur)) {
                cur = next;
                changed = true;
            }
        }
    }
}

const FunctionSummary*
ModuleSummaries::lookup(const std::string& callee) const
{
    auto it = sums_.find(callee);
    return it == sums_.end() ? nullptr : &it->second;
}

FunctionSummary
ModuleSummaries::callSummary(const Instr& call) const
{
    if (const FunctionSummary* s = lookup(call.callee))
        return *s;
    return declaredSummary(call.effect,
                           static_cast<int>(call.args.size()));
}

FunctionSummary
ModuleSummaries::declaredSummary(Effect e, int numParams)
{
    FunctionSummary s;
    s.name = "<external>";
    s.numParams = numParams;
    s.params.resize(numParams);
    s.callsUnknown = true;
    switch (e) {
      case Effect::pure:
        s.callsUnknown = false;  // fully described by the class
        break;
      case Effect::readsNVM:
        for (auto& p : s.params)
            p.read = true;
        s.readsUnknown = true;
        break;
      case Effect::writesNVM:
        // Could read, overwrite, and stash any pointer it is given,
        // and nothing proves it logs or flushes what it writes.
        for (auto& p : s.params) {
            p.read = true;
            p.written = true;
            p.clobbered = true;
            p.escapes = true;
        }
        s.readsUnknown = true;
        s.writesUnknown = true;
        break;
      case Effect::volatileWrite: s.volatileEscape = true; break;
      case Effect::nondet: s.deterministic = false; break;
      case Effect::io: s.doesIO = true; break;
    }
    return s;
}

std::vector<std::string>
ModuleSummaries::callees(const Function& f) const
{
    std::set<std::string> seen;
    std::vector<std::string> out;
    for (const auto& block : f.blocks()) {
        for (const auto& instr : block.instrs) {
            if (instr.op != Op::call)
                continue;
            if (sums_.count(instr.callee) &&
                seen.insert(instr.callee).second)
                out.push_back(instr.callee);
        }
    }
    return out;
}

}  // namespace cnvm::cir
