#include "cir/clobber_pass.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace cnvm::cir {

namespace {

std::vector<InstrRef>
uniqueSites(const std::vector<std::pair<InstrRef, InstrRef>>& pairs)
{
    std::set<std::pair<int, int>> seen;
    std::vector<InstrRef> out;
    for (const auto& [r, w] : pairs) {
        if (seen.emplace(w.block, w.index).second)
            out.push_back(w);
    }
    return out;
}

/**
 * One memory access the pass reasons about. Loads and stores are
 * `exact` (the pointer names the accessed location); call-derived
 * accesses through an argument may touch any offset inside the
 * argument's object, so they are inexact and never must-alias.
 */
struct MemAccess {
    InstrRef at;
    ValueId ptr = kNoValue;
    bool exact = true;
};

Alias
accessAlias(const AliasAnalysis& aa, const MemAccess& a,
            const MemAccess& b)
{
    Alias v = aa.alias(a.ptr, b.ptr);
    if (v == Alias::must && (!a.exact || !b.exact))
        return Alias::may;
    return v;
}

bool
sameAccess(const MemAccess& a, const MemAccess& b)
{
    return a.at == b.at && a.ptr == b.ptr;
}

ClobberResult
analyzeClobbersImpl(const Function& f, const ModuleSummaries* sums)
{
    AliasAnalysis aa(f);
    Dominators dom(f);
    ClobberResult out;

    std::vector<MemAccess> reads;
    std::vector<MemAccess> writes;
    // (call site, arg) pairs whose callee reads-then-overwrites the
    // argument's memory: the call alone is a clobber site.
    std::vector<MemAccess> selfClobbers;
    for (int b = 0; b < static_cast<int>(f.blocks().size()); b++) {
        const auto& instrs = f.blocks()[b].instrs;
        for (int i = 0; i < static_cast<int>(instrs.size()); i++) {
            const Instr& in = instrs[i];
            InstrRef at{b, i};
            if (in.op == Op::load)
                reads.push_back({at, in.ptr, true});
            if (in.op == Op::store)
                writes.push_back({at, in.ptr, true});
            if (in.op != Op::call || !sums)
                continue;
            forEachArgEffect(in, sums->callSummary(in),
                             [&](ValueId a, const ArgEffect& eff) {
                                 if (eff.read)
                                     reads.push_back({at, a, false});
                                 if (eff.written)
                                     writes.push_back({at, a, false});
                                 if (eff.clobbered)
                                     selfClobbers.push_back({at, a, false});
                             });
        }
    }

    // Step 1: candidate input reads — reads not dominated by a
    // must-aliasing store of the same location.
    std::vector<MemAccess> candidates;
    for (const auto& r : reads) {
        bool dominatedBySameLocStore = false;
        for (const auto& s : writes) {
            if (dom.dominates(s.at, r.at) &&
                accessAlias(aa, s, r) == Alias::must) {
                dominatedBySameLocStore = true;
                break;
            }
        }
        if (!dominatedBySameLocStore) {
            candidates.push_back(r);
            out.candidateReads.push_back(r.at);
        }
    }

    // Step 2: candidate clobber writes per candidate read.
    std::vector<std::pair<MemAccess, MemAccess>> pairs;
    for (const auto& r : candidates) {
        for (const auto& s : writes) {
            if (dom.mayFollow(r.at, s.at) &&
                accessAlias(aa, s, r) != Alias::no) {
                pairs.emplace_back(r, s);
            }
        }
    }
    // A callee that reads-then-overwrites its argument clobbers the
    // input inside one call site: pair the site with itself.
    for (const auto& c : selfClobbers)
        pairs.emplace_back(c, c);
    for (const auto& [r, s] : pairs)
        out.conservativePairs.emplace_back(r.at, s.at);

    // Refinement: drop unexposed and shadowed false candidates. The
    // must-alias requirements mean only exact accesses can license a
    // removal, so call-derived candidates are conservatively kept.
    for (const auto& pair : pairs) {
        const auto& [r, s] = pair;

        // Unexposed (Figure 5, left): a store dominating the read
        // must-aliases the candidate write.
        bool unexposed = false;
        for (const auto& w : writes) {
            if (sameAccess(w, s))
                continue;
            if (dom.dominates(w.at, r.at) &&
                accessAlias(aa, w, s) == Alias::must) {
                unexposed = true;
                break;
            }
        }
        if (unexposed) {
            out.removedUnexposed++;
            continue;
        }

        // Shadowed (Figure 5, right): an earlier clobber candidate W
        // of the same read dominates S, and the alias relations
        // guarantee W hits the input's location whenever S does:
        // either W must-aliases S, or W must-aliases the read.
        bool shadowed = false;
        for (const auto& w : writes) {
            if (sameAccess(w, s) || !dom.dominates(w.at, s.at))
                continue;
            if (!dom.mayFollow(r.at, w.at))
                continue;  // not a clobber candidate of this read
            if (accessAlias(aa, w, r) == Alias::no)
                continue;
            if (accessAlias(aa, w, s) == Alias::must ||
                accessAlias(aa, w, r) == Alias::must) {
                shadowed = true;
                break;
            }
        }
        if (shadowed) {
            out.removedShadowed++;
            continue;
        }
        out.refinedPairs.emplace_back(r.at, s.at);
    }

    out.conservativeSites = uniqueSites(out.conservativePairs);
    out.refinedSites = uniqueSites(out.refinedPairs);
    return out;
}

}  // namespace

ClobberResult
analyzeClobbers(const Function& f)
{
    return analyzeClobbersImpl(f, nullptr);
}

ClobberResult
analyzeClobbers(const Function& f, const ModuleSummaries& sums)
{
    return analyzeClobbersImpl(f, &sums);
}

uint64_t
baselineTraversal(const Function& f)
{
    uint64_t sum = 0;
    for (const auto& block : f.blocks()) {
        for (const auto& instr : block.instrs) {
            sum = sum * 31 + static_cast<uint64_t>(instr.op) +
                  static_cast<uint64_t>(instr.result + 7);
        }
        for (int s : block.succs)
            sum = sum * 17 + static_cast<uint64_t>(s);
    }
    return sum;
}

std::string
ClobberResult::summary(const Function& f) const
{
    std::ostringstream os;
    os << f.name() << ": " << candidateReads.size()
       << " candidate reads, " << conservativeSites.size()
       << " conservative clobber sites -> " << refinedSites.size()
       << " after refinement (" << removedUnexposed << " unexposed, "
       << removedShadowed << " shadowed pairs removed)";
    return os.str();
}

}  // namespace cnvm::cir
