#include "analysis/persist_check.h"

#include <set>
#include <sstream>

namespace cnvm::analysis {

using cir::Alias;
using cir::AliasAnalysis;
using cir::Dominators;
using cir::Function;
using cir::Instr;
using cir::InstrRef;
using cir::Op;

const char*
severityName(Severity s)
{
    switch (s) {
      case Severity::info: return "info";
      case Severity::warning: return "warning";
      case Severity::error: return "error";
    }
    return "?";
}

const char*
checkKindName(CheckKind k)
{
    switch (k) {
      case CheckKind::missingFlush: return "missing-flush";
      case CheckKind::missingFence: return "missing-fence";
      case CheckKind::doubleFlush: return "double-flush";
      case CheckKind::unloggedClobber: return "unlogged-clobber";
      case CheckKind::unneededClobberLog:
        return "unneeded-clobber-log";
      case CheckKind::nondetInTx: return "nondet-in-tx";
      case CheckKind::ioInTx: return "io-in-tx";
      case CheckKind::volatileEscape: return "volatile-escape";
      case CheckKind::hiddenClobber: return "hidden-clobber";
    }
    return "?";
}

Violation
violation(CheckKind kind, Severity severity, InstrRef at,
          std::string callee, std::string detail, std::string hint)
{
    return {kind, severity, at, std::move(detail), std::move(hint),
            std::move(callee)};
}

std::string
Violation::calleeIn(const Function& f) const
{
    if (!callee.empty() || f.at(at).op != Op::call)
        return callee;
    return f.at(at).callee;
}

bool
PersistReport::clean() const
{
    return count(Severity::error) == 0;
}

int
PersistReport::count(Severity s) const
{
    int n = 0;
    for (const auto& v : violations)
        n += v.severity == s ? 1 : 0;
    return n;
}

int
PersistReport::count(CheckKind k) const
{
    int n = 0;
    for (const auto& v : violations)
        n += v.kind == k ? 1 : 0;
    return n;
}

bool
PersistReport::has(CheckKind k) const
{
    return count(k) > 0;
}

std::string
PersistReport::summary(const Function& f) const
{
    std::ostringstream os;
    os << f.name() << ": " << storesChecked << " stores, "
       << flushesChecked << " flushes, " << clobberSitesChecked
       << " clobber sites";
    if (callsChecked > 0)
        os << ", " << callsChecked << " calls";
    os << " checked — " << count(Severity::error) << " errors, "
       << count(Severity::warning) << " warnings, "
       << count(Severity::info) << " info";
    return os.str();
}

std::string
PersistReport::toString(const Function& f) const
{
    std::ostringstream os;
    os << summary(f) << "\n";
    for (const auto& v : violations) {
        os << "  [" << severityName(v.severity) << "] "
           << checkKindName(v.kind);
        // Call-derived findings name the callee: a bare instruction
        // index is unreadable once findings cross functions.
        std::string callee = v.calleeIn(f);
        if (!callee.empty()) {
            os << " at call '" << callee << "' (b" << v.at.block
               << ":i" << v.at.index << ")";
        } else {
            os << " at b" << v.at.block << ":i" << v.at.index;
            if (!f.at(v.at).name.empty())
                os << " '" << f.at(v.at).name << "'";
        }
        if (!v.detail.empty())
            os << " — " << v.detail;
        if (!v.hint.empty())
            os << "; fix: " << v.hint;
        os << "\n";
    }
    return os.str();
}

namespace {

/** One audited event: a real instruction, or a call standing in for
    what its callee does through one pointer argument. */
struct AuditPoint {
    InstrRef at;
    cir::ValueId ptr = cir::kNoValue;
    bool fromCall = false;
    /** Stores: the callee flushes what it writes through this arg.
        Flushes: the callee also fences on exit. */
    bool coveredByCallee = false;
    std::string callee;
};

}  // namespace

PersistReport
checkPersistency(const Function& f)
{
    return checkPersistency(f, nullptr);
}

PersistReport
checkPersistency(const Function& f, const cir::ModuleSummaries* sums)
{
    AliasAnalysis aa(f);
    Dominators dom(f);
    PersistReport out;

    std::vector<AuditPoint> stores;
    std::vector<AuditPoint> flushes;
    std::vector<AuditPoint> fences;
    std::vector<AuditPoint> clogs;
    for (int b = 0; b < static_cast<int>(f.blocks().size()); b++) {
        const auto& instrs = f.blocks()[b].instrs;
        for (int i = 0; i < static_cast<int>(instrs.size()); i++) {
            const Instr& in = instrs[i];
            InstrRef at{b, i};
            switch (in.op) {
              case Op::store: stores.push_back({at, in.ptr}); break;
              case Op::flush: flushes.push_back({at, in.ptr}); break;
              case Op::fence: fences.push_back({at}); break;
              case Op::clobberlog:
                clogs.push_back({at, in.ptr});
                break;
              case Op::call: {
                if (!sums)
                    break;
                cir::FunctionSummary cs = sums->callSummary(in);
                out.callsChecked++;
                cir::forEachArgEffect(in, cs, [&](cir::ValueId a,
                                                  const cir::ArgEffect& eff) {
                    if (eff.written)
                        stores.push_back(
                            {at, a, true, eff.flushed, in.callee});
                    if (eff.flushed)
                        flushes.push_back(
                            {at, a, true, cs.fencesOnExit, in.callee});
                    if (eff.logged)
                        clogs.push_back({at, a, true, false, in.callee});
                });
                if (cs.fencesOnExit)
                    fences.push_back(
                        {at, cir::kNoValue, true, false, in.callee});
                break;
              }
              default: break;
            }
        }
    }

    // (a) Every NVM store needs a must-aliasing flush before the
    // transaction ends. A flush *before* the store persists nothing.
    // A callee that flushes what it writes covers its own stores.
    for (const auto& s : stores) {
        if (aa.basedOnAlloca(s.ptr))
            continue;  // stack storage is volatile by contract
        out.storesChecked++;
        if (s.fromCall && s.coveredByCallee)
            continue;
        bool onAllPaths = false;
        bool onSomePath = false;
        for (const auto& fl : flushes) {
            if (aa.alias(fl.ptr, s.ptr) != Alias::must)
                continue;
            if (fl.at == s.at)
                continue;  // the call's own synthetic flush
            if (dom.alwaysFollows(s.at, fl.at))
                onAllPaths = true;
            else if (dom.mayFollow(s.at, fl.at))
                onSomePath = true;
        }
        const char* hint =
            s.fromCall
                ? "flush the written location in the callee, or "
                  "flush the argument after the call"
                : "";
        if (!onAllPaths && !onSomePath) {
            out.violations.push_back(violation(
                CheckKind::missingFlush, Severity::error, s.at,
                s.callee,
                s.fromCall
                    ? "callee writes through this argument and no "
                      "flush of it reaches transaction end"
                    : "no flush of this location reaches "
                      "transaction end",
                hint));
        } else if (!onAllPaths) {
            out.violations.push_back(violation(
                CheckKind::missingFlush, Severity::warning, s.at,
                s.callee, "flushed on some paths only", hint));
        }
    }

    // (b) Every flush must be ordered by a later fence, or the line
    // can still be lost at the commit point. A callee that fences on
    // exit orders its own flushes and acts as a fence point for
    // flushes preceding the call.
    for (const auto& fl : flushes) {
        out.flushesChecked++;
        if (fl.fromCall && fl.coveredByCallee)
            continue;
        bool onAllPaths = false;
        bool onSomePath = false;
        for (const auto& fn : fences) {
            if (fn.at == fl.at)
                continue;
            if (dom.alwaysFollows(fl.at, fn.at))
                onAllPaths = true;
            else if (dom.mayFollow(fl.at, fn.at))
                onSomePath = true;
        }
        if (!onAllPaths && !onSomePath) {
            out.violations.push_back(violation(
                CheckKind::missingFence, Severity::error, fl.at,
                fl.callee,
                fl.fromCall ? "callee flushes this argument but "
                              "nothing fences the flush"
                            : "no fence follows this flush"));
        } else if (!onAllPaths) {
            out.violations.push_back(violation(
                CheckKind::missingFence, Severity::warning, fl.at,
                fl.callee, "fenced on some paths only"));
        }
    }

    // (c) Two must-aliasing flushes with no re-dirtying store in
    // between: the second clwb is pure overhead. Call-derived
    // flushes target unknown offsets, so only real flushes count.
    for (const auto& f1 : flushes) {
        for (const auto& f2 : flushes) {
            if (f1.fromCall || f2.fromCall)
                continue;
            if (f1.at == f2.at || !dom.dominates(f1.at, f2.at))
                continue;
            if (aa.alias(f1.ptr, f2.ptr) != Alias::must)
                continue;
            bool redirtied = false;
            for (const auto& s : stores) {
                if (aa.alias(s.ptr, f2.ptr) == Alias::no)
                    continue;
                if (dom.mayFollow(f1.at, s.at) &&
                    dom.mayFollow(s.at, f2.at)) {
                    redirtied = true;
                    break;
                }
            }
            if (!redirtied) {
                out.violations.push_back(violation(
                    CheckKind::doubleFlush, Severity::warning, f2.at,
                    "", "line already flushed and not re-dirtied"));
            }
        }
    }

    // (d) Every refined clobber site needs a dominating clobber_log
    // of its location; a clobber_log covering no site is dead weight.
    // With summaries the clobber pass is interprocedural, so a site
    // can be a call: its callee must log the argument itself, or a
    // caller-side clobber_log must dominate the call.
    cir::ClobberResult clob =
        sums ? cir::analyzeClobbers(f, *sums)
             : cir::analyzeClobbers(f);
    auto loggedAt = [&](cir::ValueId ptr,
                        const InstrRef& site) -> bool {
        for (const auto& c : clogs) {
            if (c.at == site)
                continue;
            if (aa.alias(c.ptr, ptr) == Alias::must &&
                dom.dominates(c.at, site))
                return true;
        }
        return false;
    };
    for (const auto& site : clob.refinedSites) {
        const Instr& in = f.at(site);
        if (in.op == Op::call) {
            cir::forEachArgEffect(in, sums->callSummary(in),
                                  [&](cir::ValueId a,
                                      const cir::ArgEffect& eff) {
                if (!eff.written || aa.basedOnAlloca(a))
                    return;
                out.clobberSitesChecked++;
                if (eff.logged || loggedAt(a, site))
                    return;
                out.violations.push_back(violation(
                    CheckKind::unloggedClobber, Severity::error, site,
                    in.callee,
                    "callee may clobber this argument and neither "
                    "it nor the caller logs the old value",
                    "clobber_log the location in the callee before "
                    "its store, or clobber_log the argument before "
                    "the call"));
            });
            continue;
        }
        if (aa.basedOnAlloca(in.ptr))
            continue;  // volatile scratch: never logged
        out.clobberSitesChecked++;
        if (!loggedAt(in.ptr, site)) {
            out.violations.push_back(violation(
                CheckKind::unloggedClobber, Severity::error, site, "",
                "refined clobber site has no dominating "
                "clobber_log"));
        }
    }
    for (const auto& c : clogs) {
        if (c.fromCall)
            continue;  // the callee's own logging is audited there
        bool useful = false;
        for (const auto& site : clob.refinedSites) {
            const Instr& in = f.at(site);
            if (in.op == Op::call) {
                // Useful if it covers any argument the callee may
                // write through.
                cir::forEachArgEffect(in, sums->callSummary(in),
                                      [&](cir::ValueId a,
                                          const cir::ArgEffect& eff) {
                    if (eff.written && aa.alias(c.ptr, a) == Alias::must &&
                        dom.dominates(c.at, site))
                        useful = true;
                });
                continue;
            }
            if (aa.alias(c.ptr, in.ptr) == Alias::must &&
                dom.dominates(c.at, site)) {
                useful = true;
                break;
            }
        }
        if (!useful) {
            out.violations.push_back(violation(
                CheckKind::unneededClobberLog, Severity::info, c.at,
                "", "logs a location no refined site clobbers"));
        }
    }

    return out;
}

cir::Function
instrumentPersistency(const Function& f, const cir::ClobberResult& res)
{
    AliasAnalysis aa(f);
    std::set<std::pair<int, int>> sites;
    for (const auto& s : res.refinedSites)
        sites.emplace(s.block, s.index);

    Function out(f.name());
    for (const auto& block : f.blocks())
        out.addBlock(block.label);
    for (int b = 0; b < static_cast<int>(f.blocks().size()); b++) {
        for (int s : f.blocks()[b].succs)
            out.addEdge(b, s);
    }

    for (int b = 0; b < static_cast<int>(f.blocks().size()); b++) {
        const auto& instrs = f.blocks()[b].instrs;
        for (int i = 0; i < static_cast<int>(instrs.size()); i++) {
            Instr copy = instrs[i];
            bool nvmStore = copy.op == Op::store &&
                            !aa.basedOnAlloca(copy.ptr);
            if (nvmStore && sites.count({b, i}))
                cir::emitClobberLog(out, b, copy.ptr,
                                    "clobber_log " + copy.name);
            // append() re-derives result ids; the intrinsics define
            // none, so the original numbering is preserved.
            copy.result = cir::kNoValue;
            out.append(b, copy);
            if (nvmStore)
                cir::emitFlush(out, b, copy.ptr,
                               "flush " + copy.name);
        }
    }
    for (int b = 0; b < static_cast<int>(f.blocks().size()); b++) {
        if (f.isExit(b))
            cir::emitFence(out, b, "commit fence");
    }
    return out;
}

}  // namespace cnvm::analysis
