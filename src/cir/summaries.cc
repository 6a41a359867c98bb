#include "cir/summaries.h"

#include <set>

#include "cir/clobber_pass.h"
#include "common/error.h"

namespace cnvm::cir {

BaseResolver::BaseResolver(const Function& f) : info_(f.numValues())
{
    for (const auto& block : f.blocks()) {
        for (const auto& instr : block.instrs) {
            if (instr.result == kNoValue)
                continue;
            Info& in = info_[instr.result];
            switch (instr.op) {
              case Op::arg:
                in.kind = Kind::param;
                in.param = numParams_++;
                in.root = instr.result;
                break;
              case Op::alloca_:
                in.kind = Kind::alloca_;
                in.root = instr.result;
                break;
              case Op::malloc_:
                in.kind = Kind::fresh;
                in.root = instr.result;
                break;
              case Op::gep:
                // Follows gep chains (offset 0 is the plain
                // pointer-copy idiom in this IR).
                in = info_[instr.value];
                break;
              default:
                // Loaded pointers, call results, scalars.
                in.kind = Kind::unknown;
                break;
            }
        }
    }
}

namespace {

/** One monotone transfer step for a single function. */
FunctionSummary
computeOne(const Function& f,
           const std::map<std::string, FunctionSummary>& sums)
{
    BaseResolver bases(f);
    FunctionSummary out;
    out.name = f.name();
    out.numParams = bases.numParams();
    out.params.resize(out.numParams);

    auto resolve = [&](const Instr& c) -> FunctionSummary {
        auto it = sums.find(c.callee);
        if (it != sums.end())
            return it->second;
        return ModuleSummaries::declaredSummary(
            c.effect, static_cast<int>(c.args.size()));
    };
    auto argEffect = [](const FunctionSummary& cs,
                        size_t j) -> ArgEffect {
        if (j < cs.params.size())
            return cs.params[j];
        return ArgEffect{};
    };

    // Pass 1: which allocas escape (address stored into memory or
    // handed to a callee that lets its parameter escape).
    std::set<ValueId> escapedAllocas;
    for (const auto& block : f.blocks()) {
        for (const auto& instr : block.instrs) {
            if (instr.op == Op::store && instr.value != kNoValue) {
                if (bases.kind(instr.value) ==
                    BaseResolver::Kind::alloca_)
                    escapedAllocas.insert(
                        bases.allocaRoot(instr.value));
            }
            if (instr.op == Op::call) {
                FunctionSummary cs = resolve(instr);
                for (size_t j = 0; j < instr.args.size(); j++) {
                    ValueId a = instr.args[j];
                    if (a == kNoValue)
                        continue;
                    if (argEffect(cs, j).escapes &&
                        bases.kind(a) ==
                            BaseResolver::Kind::alloca_)
                        escapedAllocas.insert(bases.allocaRoot(a));
                }
            }
        }
    }

    // Pass 2: accumulate effects.
    for (const auto& block : f.blocks()) {
        for (const auto& instr : block.instrs) {
            using K = BaseResolver::Kind;
            switch (instr.op) {
              case Op::load:
                switch (bases.kind(instr.ptr)) {
                  case K::param:
                    out.params[bases.paramIndex(instr.ptr)].read =
                        true;
                    break;
                  case K::unknown: out.readsUnknown = true; break;
                  default: break;  // alloca / fresh: local
                }
                break;
              case Op::store:
                switch (bases.kind(instr.ptr)) {
                  case K::param:
                    out.params[bases.paramIndex(instr.ptr)]
                        .written = true;
                    break;
                  case K::unknown: out.writesUnknown = true; break;
                  case K::alloca_:
                    // A store to stack storage whose address has
                    // escaped: observable volatile state.
                    if (escapedAllocas.count(
                            bases.allocaRoot(instr.ptr)))
                        out.volatileEscape = true;
                    break;
                  default: break;  // fresh: local
                }
                if (instr.value != kNoValue &&
                    bases.kind(instr.value) == K::param)
                    out.params[bases.paramIndex(instr.value)]
                        .escapes = true;
                break;
              case Op::clobberlog:
                if (bases.kind(instr.ptr) == K::param)
                    out.params[bases.paramIndex(instr.ptr)].logged =
                        true;
                break;
              case Op::flush:
                if (bases.kind(instr.ptr) == K::param)
                    out.params[bases.paramIndex(instr.ptr)]
                        .flushed = true;
                break;
              case Op::call: {
                FunctionSummary cs = resolve(instr);
                if (sums.find(instr.callee) == sums.end())
                    out.callsUnknown = true;
                out.deterministic =
                    out.deterministic && cs.deterministic;
                out.doesIO = out.doesIO || cs.doesIO;
                out.volatileEscape =
                    out.volatileEscape || cs.volatileEscape;
                out.readsUnknown =
                    out.readsUnknown || cs.readsUnknown;
                out.writesUnknown =
                    out.writesUnknown || cs.writesUnknown;
                out.callsUnknown =
                    out.callsUnknown || cs.callsUnknown;
                for (size_t j = 0; j < instr.args.size(); j++) {
                    ValueId a = instr.args[j];
                    if (a == kNoValue)
                        continue;
                    ArgEffect eff = argEffect(cs, j);
                    switch (bases.kind(a)) {
                      case K::param: {
                        ArgEffect& p =
                            out.params[bases.paramIndex(a)];
                        p.read = p.read || eff.read;
                        p.written = p.written || eff.written;
                        p.clobbered = p.clobbered || eff.clobbered;
                        p.logged = p.logged || eff.logged;
                        p.flushed = p.flushed || eff.flushed;
                        p.escapes = p.escapes || eff.escapes;
                        break;
                      }
                      case K::unknown:
                        out.readsUnknown =
                            out.readsUnknown || eff.read;
                        out.writesUnknown =
                            out.writesUnknown || eff.written;
                        break;
                      case K::alloca_:
                        if (eff.written &&
                            escapedAllocas.count(
                                bases.allocaRoot(a)))
                            out.volatileEscape = true;
                        break;
                      default: break;  // fresh: local
                    }
                }
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
    for (const auto& block : f.blocks()) {
        bool leaves = false;
        for (int s : block.succs)
            leaves = leaves || &f.blocks()[s] != &block;
        if (leaves)
            continue;
        anyExit = true;
        bool fenced = false;
        for (const auto& instr : block.instrs) {
            if (instr.op == Op::fence)
                fenced = true;
            if (instr.op == Op::call && resolve(instr).fencesOnExit)
                fenced = true;
        }
        allFenced = allFenced && fenced;
    }
    out.fencesOnExit = anyExit && allFenced;
    return out;
}

}  // namespace

ModuleSummaries::ModuleSummaries(const std::vector<Function>& fns)
{
    for (const auto& f : fns) {
        BaseResolver bases(f);
        FunctionSummary bottom;
        bottom.name = f.name();
        bottom.numParams = bases.numParams();
        bottom.params.resize(bottom.numParams);
        sums_[f.name()] = bottom;
    }
    constexpr int kMaxIterations = 64;
    bool changed = true;
    while (changed) {
        CNVM_CHECK(iterations_ < kMaxIterations,
                   "summary fixpoint diverged");
        iterations_++;
        changed = false;
        for (const auto& f : fns) {
            FunctionSummary next = computeOne(f, sums_);
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
