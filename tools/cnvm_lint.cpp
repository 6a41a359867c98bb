/**
 * @file
 * cnvm_lint: the persistency + re-execution-safety checker CLI.
 *
 * Modes (default `all`):
 *
 *  persist — the intraprocedural pipeline: every seeded-violation
 *      fixture (missing flush, missing fence, unlogged clobber,
 *      double flush) must be flagged with its expected finding and
 *      the clean fixture must report nothing; then every registered
 *      benchmark CIR function is run through the clobber pass,
 *      instrumented, and must check clean.
 *  reexec — the interprocedural pipeline: every seeded reexec
 *      fixture (nondeterministic call, I/O in tx, escaping volatile
 *      store, callee-hidden clobber) must be flagged; then the whole
 *      corpus (benchmark modules + the runtime tx module) is checked
 *      with call summaries: summary-aware persistency audit plus the
 *      re-execution-safety verifier, zero errors required.
 *  dynamic — each of the six runtimes executes a short mixed
 *      workload (including a crashAllLost + recovery round trip)
 *      with the DurabilityValidator attached; no commit may leave a
 *      dirty line.
 *  all — everything above.
 *
 * Flags: -v (verbose), --json (machine-readable findings; persist
 * and reexec modes only), --werror (warning findings also fail),
 * --list (enumerate registered fixtures + corpus functions, exit 0).
 *
 * Exit codes: 0 clean, 1 findings (or self-check/validator failure),
 * 2 usage error.
 *
 * Usage: cnvm_lint [persist|reexec|dynamic|all] [-v] [--json]
 *                  [--werror] [--list]
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/pm_allocator.h"
#include "analysis/durability.h"
#include "analysis/fixtures.h"
#include "analysis/persist_check.h"
#include "analysis/reexec_check.h"
#include "cir/builders.h"
#include "cir/clobber_pass.h"
#include "cir/summaries.h"
#include "nvm/pool.h"
#include "nvm/pptr.h"
#include "runtimes/factory.h"
#include "txn/txrun.h"

using namespace cnvm;

namespace {

bool verbose = false;
int selfCheckFailures = 0;
int errorFindings = 0;
int warningFindings = 0;

/** Findings accumulator for --json (null when emitting text). */
std::string* jsonOut = nullptr;
bool jsonFirst = true;

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

/** Record one function's report: JSON object or verbose text. */
void
emitReport(const std::string& module, const cir::Function& f,
           const analysis::PersistReport& rep, bool bad)
{
    errorFindings += rep.count(analysis::Severity::error);
    warningFindings += rep.count(analysis::Severity::warning);
    if (jsonOut) {
        std::string& o = *jsonOut;
        if (!jsonFirst)
            o += ",";
        jsonFirst = false;
        o += "\n    {\"module\": \"" + jsonEscape(module) +
             "\", \"function\": \"" + jsonEscape(f.name()) +
             "\", \"findings\": [";
        bool first = true;
        for (const auto& v : rep.violations) {
            if (!first)
                o += ", ";
            first = false;
            o += "\n      {\"kind\": \"";
            o += analysis::checkKindName(v.kind);
            o += "\", \"severity\": \"";
            o += analysis::severityName(v.severity);
            o += "\", \"block\": " + std::to_string(v.at.block) +
                 ", \"instr\": " + std::to_string(v.at.index);
            std::string callee =
                !v.callee.empty() ? v.callee
                                  : f.at(v.at).op == cir::Op::call
                                        ? f.at(v.at).callee
                                        : "";
            if (!callee.empty())
                o += ", \"callee\": \"" + jsonEscape(callee) + "\"";
            o += ", \"detail\": \"" + jsonEscape(v.detail) + "\"";
            if (!v.hint.empty())
                o += ", \"hint\": \"" + jsonEscape(v.hint) + "\"";
            o += "}";
        }
        o += first ? "]}" : "\n    ]}";
    } else if (bad || verbose) {
        std::printf("%s/%s", module.c_str(),
                    rep.toString(f).c_str());
    }
}

/** Minimal persistent root for the dynamic workload. */
struct LintRoot {
    uint64_t counter;
    uint64_t sum;
    nvm::PPtr<struct LintNode> head;
};

struct LintNode {
    uint64_t value;
    nvm::PPtr<LintNode> next;
};

void
incrFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<LintRoot>(a.get<uint64_t>());
    tx.st(root->counter, tx.ld(root->counter) + 1);
}

void
pushFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<LintRoot>(a.get<uint64_t>());
    auto value = a.get<uint64_t>();
    auto node = tx.pnew<LintNode>();
    tx.st(node->value, value);
    tx.st(node->next, tx.ld(root->head));
    tx.st(root->head, node);
    tx.st(root->sum, tx.ld(root->sum) + value);
}

void
popFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<LintRoot>(a.get<uint64_t>());
    auto head = tx.ld(root->head);
    if (head.isNull())
        return;
    uint64_t value = tx.ld(head->value);
    tx.st(root->head, tx.ld(head->next));
    tx.st(root->sum, tx.ld(root->sum) - value);
    tx.pfree(head);
}

const txn::FuncId kLintIncr = txn::registerTxFunc("lint_incr", incrFn);
const txn::FuncId kLintPush = txn::registerTxFunc("lint_push", pushFn);
const txn::FuncId kLintPop = txn::registerTxFunc("lint_pop", popFn);
const txn::FuncId kLintMakeRoot = txn::registerTxFunc(
    "lint_make_root", [](txn::Tx& tx, txn::ArgReader&) {
        auto r = tx.pnew<LintRoot>();
        tx.pool().setRoot(r.raw());
    });

bool
runFixtureSelfCheck()
{
    bool ok = true;
    for (const auto& [fn, expected] :
         analysis::seededViolationFixtures()) {
        auto rep = analysis::checkPersistency(fn);
        if (!rep.has(expected)) {
            std::printf("FAIL %s: seeded %s not flagged\n",
                        fn.name().c_str(),
                        analysis::checkKindName(expected));
            ok = false;
        } else if (verbose && !jsonOut) {
            std::printf("%s", rep.toString(fn).c_str());
        }
    }
    cir::Function clean = analysis::buildCleanFixture();
    auto rep = analysis::checkPersistency(clean);
    if (!rep.violations.empty()) {
        std::printf("FAIL %s: false positive on clean fixture\n%s",
                    clean.name().c_str(),
                    rep.toString(clean).c_str());
        ok = false;
    }
    if (!jsonOut)
        std::printf("fixture self-check: %s\n",
                    ok ? "ok" : "FAILED");
    if (!ok)
        selfCheckFailures++;
    return ok;
}

bool
runStaticLint()
{
    bool ok = true;
    size_t functions = 0;
    for (const auto& mod : cir::benchmarkModules()) {
        for (const auto& fn : mod.functions) {
            functions++;
            cir::ClobberResult res = cir::analyzeClobbers(fn);
            cir::Function inst =
                analysis::instrumentPersistency(fn, res);
            auto rep = analysis::checkPersistency(inst);
            bool bad = !rep.clean() ||
                       rep.count(analysis::Severity::warning) > 0;
            emitReport(mod.name, inst, rep, bad);
            ok = ok && !bad;
        }
    }
    if (!jsonOut)
        std::printf("static lint: %zu functions, %s\n", functions,
                    ok ? "ok" : "FAILED");
    return ok;
}

/** Each seeded reexec module must yield its expected finding; the
    clean module must be silent under both interprocedural audits. */
bool
runReexecSelfCheck()
{
    bool ok = true;
    for (const auto& fix : analysis::seededReexecFixtures()) {
        cir::ModuleSummaries sums(fix.mod.functions);
        const cir::Function* tx = nullptr;
        for (const auto& fn : fix.mod.functions)
            if (fn.name() == fix.txFunction)
                tx = &fn;
        if (!tx) {
            std::printf("FAIL %s: tx function '%s' missing\n",
                        fix.mod.name.c_str(),
                        fix.txFunction.c_str());
            ok = false;
            continue;
        }
        auto rep = analysis::checkReexecSafety(*tx, sums);
        if (!rep.has(fix.expected)) {
            std::printf("FAIL %s: seeded %s not flagged\n",
                        tx->name().c_str(),
                        analysis::checkKindName(fix.expected));
            ok = false;
        } else if (verbose && !jsonOut) {
            std::printf("%s", rep.toString(*tx).c_str());
        }
    }
    cir::IrModule clean = analysis::buildReexecCleanModule();
    cir::ModuleSummaries sums(clean.functions);
    for (const auto& fn : clean.functions) {
        auto rep = analysis::checkReexecSafety(fn, sums);
        auto prep = analysis::checkPersistency(fn, &sums);
        if (!rep.violations.empty() || !prep.clean()) {
            std::printf(
                "FAIL %s: false positive on clean module\n%s%s",
                fn.name().c_str(), rep.toString(fn).c_str(),
                prep.toString(fn).c_str());
            ok = false;
        }
    }
    if (!jsonOut)
        std::printf("reexec self-check: %s\n", ok ? "ok" : "FAILED");
    if (!ok)
        selfCheckFailures++;
    return ok;
}

/** Interprocedural corpus gate: benchmark modules (instrumented, as
    the compiler would emit them) and the pre-instrumented runtime tx
    module must carry zero error findings under the summary-aware
    persistency audit and the reexec verifier. */
bool
runReexecLint()
{
    bool ok = true;
    size_t functions = 0;

    auto modules = cir::benchmarkModules();
    for (auto& mod : modules) {
        cir::ModuleSummaries sums(mod.functions);
        for (const auto& fn : mod.functions) {
            functions++;
            cir::ClobberResult res = cir::analyzeClobbers(fn, sums);
            cir::Function inst =
                analysis::instrumentPersistency(fn, res);
            auto rep = analysis::checkPersistency(inst, &sums);
            auto rrep = analysis::checkReexecSafety(inst, sums);
            rep.violations.insert(rep.violations.end(),
                                  rrep.violations.begin(),
                                  rrep.violations.end());
            rep.callsChecked += rrep.callsChecked;
            bool bad = !rep.clean() ||
                       rep.count(analysis::Severity::warning) > 0;
            emitReport(mod.name, inst, rep, bad);
            ok = ok && !bad;
        }
    }

    // The runtime tx corpus ships instrumented; check it as-is.
    cir::IrModule rt = cir::runtimeTxModule();
    cir::ModuleSummaries sums(rt.functions);
    for (const auto& fn : rt.functions) {
        functions++;
        auto rep = analysis::checkPersistency(fn, &sums);
        auto rrep = analysis::checkReexecSafety(fn, sums);
        rep.violations.insert(rep.violations.end(),
                              rrep.violations.begin(),
                              rrep.violations.end());
        rep.callsChecked += rrep.callsChecked;
        bool bad = !rep.clean() ||
                   rep.count(analysis::Severity::warning) > 0;
        emitReport(rt.name, fn, rep, bad);
        ok = ok && !bad;
    }

    if (!jsonOut)
        std::printf("reexec lint: %zu functions, %s\n", functions,
                    ok ? "ok" : "FAILED");
    return ok;
}

bool
runDynamicValidation(txn::RuntimeKind kind, const char* name)
{
    nvm::PoolConfig cfg;
    cfg.size = 32ULL << 20;
    cfg.maxThreads = 8;
    cfg.slotBytes = 128ULL << 10;
    auto pool = nvm::Pool::create(cfg);
    nvm::Pool::setCurrent(pool.get());
    alloc::PmAllocator heap(*pool);
    auto rt = rt::makeRuntime(kind, *pool, heap);

    // Bootstrap the root before attaching so setup writes are not
    // part of the audit (they are persisted by the bootstrap commit).
    txn::Engine boot(*rt);
    txn::run(boot, kLintMakeRoot);

    analysis::DurabilityValidator::Options opt;
    opt.requireDurability = kind != txn::RuntimeKind::noLog;
    analysis::DurabilityValidator validator(pool->cache(), opt);
    txn::Engine eng(*rt, &validator);
    uint64_t rootOff = pool->root();

    for (uint64_t v = 1; v <= 20; v++)
        txn::run(eng, kLintPush, rootOff, v);
    for (int i = 0; i < 10; i++)
        txn::run(eng, kLintIncr, rootOff);
    for (int i = 0; i < 5; i++)
        txn::run(eng, kLintPop, rootOff);

    // Power-loss round trip: recovery must restart the audit from a
    // consistent image and stay clean afterwards.
    pool->cache().crashAllLost();
    rt->recover();
    for (uint64_t v = 1; v <= 10; v++)
        txn::run(eng, kLintPush, rootOff, 100 + v);
    for (int i = 0; i < 10; i++)
        txn::run(eng, kLintPop, rootOff);

    bool ok = validator.violations().empty();
    std::printf("dynamic %-10s %s (%s)\n", name,
                ok ? "ok" : "FAILED", validator.summary().c_str());
    if (!ok) {
        for (const auto& v : validator.violations()) {
            std::printf("  commit #%llu tid=%u: %zu dirty, %zu "
                        "pending line(s)\n",
                        static_cast<unsigned long long>(v.commitIndex),
                        v.tid, v.dirtyLines, v.pendingLines);
        }
    }
    nvm::Pool::setCurrent(nullptr);
    return ok;
}

/** The validator itself must catch a planted dynamic violation. */
bool
runDynamicSelfCheck()
{
    nvm::PoolConfig cfg;
    cfg.size = 8ULL << 20;
    cfg.maxThreads = 2;
    cfg.slotBytes = 64ULL << 10;
    auto pool = nvm::Pool::create(cfg);
    analysis::DurabilityValidator validator(pool->cache());
    // A raw store that bypasses any runtime: dirty, never flushed.
    uint64_t junk = 0xDEAD;
    pool->writeAt(pool->heapOff(), &junk, sizeof(junk));
    validator.afterCommit(0);
    bool ok = validator.violations().size() == 1 &&
              validator.violations()[0].dirtyLines == 1;
    std::printf("dynamic self-check: %s\n", ok ? "ok" : "FAILED");
    if (!ok)
        selfCheckFailures++;
    return ok;
}

bool
runDynamic()
{
    bool ok = runDynamicSelfCheck();
    for (txn::RuntimeKind kind :
         {txn::RuntimeKind::noLog, txn::RuntimeKind::undo,
          txn::RuntimeKind::redo, txn::RuntimeKind::clobber,
          txn::RuntimeKind::atlas, txn::RuntimeKind::ido})
        ok = runDynamicValidation(kind, rt::kindName(kind)) && ok;
    return ok;
}

void
printList()
{
    std::printf("persist fixtures:\n");
    for (const auto& [fn, expected] :
         analysis::seededViolationFixtures())
        std::printf("  %-28s expects %s\n", fn.name().c_str(),
                    analysis::checkKindName(expected));
    std::printf("  %-28s expects (clean)\n",
                analysis::buildCleanFixture().name().c_str());
    std::printf("reexec fixtures:\n");
    for (const auto& fix : analysis::seededReexecFixtures())
        std::printf("  %s/%-28s expects %s\n", fix.mod.name.c_str(),
                    fix.txFunction.c_str(),
                    analysis::checkKindName(fix.expected));
    cir::IrModule clean = analysis::buildReexecCleanModule();
    for (const auto& fn : clean.functions)
        std::printf("  %s/%-28s expects (clean)\n",
                    clean.name.c_str(), fn.name().c_str());
    std::printf("corpus:\n");
    for (const auto& mod : cir::benchmarkModules())
        for (const auto& fn : mod.functions)
            std::printf("  %s/%s\n", mod.name.c_str(),
                        fn.name().c_str());
    cir::IrModule rt = cir::runtimeTxModule();
    for (const auto& fn : rt.functions)
        std::printf("  %s/%s\n", rt.name.c_str(),
                    fn.name().c_str());
}

int
usage(const char* prog)
{
    std::fprintf(stderr,
                 "usage: %s [persist|reexec|dynamic|all] [-v] "
                 "[--json] [--werror] [--list]\n",
                 prog);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string mode = "all";
    bool modeSet = false;
    bool json = false, werror = false, list = false;
    for (int i = 1; i < argc; i++) {
        const char* a = argv[i];
        if (std::strcmp(a, "-v") == 0) {
            verbose = true;
        } else if (std::strcmp(a, "--json") == 0) {
            json = true;
        } else if (std::strcmp(a, "--werror") == 0) {
            werror = true;
        } else if (std::strcmp(a, "--list") == 0) {
            list = true;
        } else if (std::strcmp(a, "persist") == 0 ||
                   std::strcmp(a, "reexec") == 0 ||
                   std::strcmp(a, "dynamic") == 0 ||
                   std::strcmp(a, "all") == 0) {
            if (modeSet)
                return usage(argv[0]);
            mode = a;
            modeSet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (list) {
        printList();
        return 0;
    }
    // JSON output covers the static pipelines only.
    if (json && mode != "persist" && mode != "reexec")
        return usage(argv[0]);

    std::string findings;
    if (json)
        jsonOut = &findings;

    bool ok = true;
    if (mode == "persist" || mode == "all") {
        ok = runFixtureSelfCheck() && ok;
        ok = runStaticLint() && ok;
    }
    if (mode == "reexec" || mode == "all") {
        ok = runReexecSelfCheck() && ok;
        ok = runReexecLint() && ok;
    }
    if (mode == "dynamic" || mode == "all")
        ok = runDynamic() && ok;

    bool fail = !ok || errorFindings > 0 ||
                (werror && warningFindings > 0) ||
                selfCheckFailures > 0;
    if (json) {
        std::printf("{\n  \"mode\": \"%s\",\n  \"functions\": [%s"
                    "\n  ],\n  \"errors\": %d,\n  \"warnings\": %d,"
                    "\n  \"selfCheckFailures\": %d,\n  \"status\": "
                    "\"%s\"\n}\n",
                    mode.c_str(), findings.c_str(), errorFindings,
                    warningFindings, selfCheckFailures,
                    fail ? "FAIL" : "PASS");
    } else {
        std::printf("cnvm_lint: %s\n", fail ? "FAIL" : "PASS");
    }
    return fail ? 1 : 0;
}
