/**
 * @file
 * Tests of the clobber-identification compiler pass: alias analysis,
 * dominators, the conservative two-step identification (Figure 4),
 * and the unexposed/shadowed refinement (Figure 5).
 */
#include <gtest/gtest.h>

#include "cir/analysis.h"
#include "cir/builders.h"
#include "cir/clobber_pass.h"
#include "cir/summaries.h"

namespace cnvm::cir {
namespace {

TEST(AliasAnalysis, BasicVerdicts)
{
    Function f("alias");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId q = emitArg(f, b, "q");
    ValueId m = emitMalloc(f, b, "m");
    ValueId a = emitAlloca(f, b, "a");
    ValueId p8 = emitGep(f, b, p, 8);
    ValueId p8b = emitGep(f, b, p, 8);
    ValueId p16 = emitGep(f, b, p, 16);
    ValueId pU = emitGep(f, b, p, -1);
    ValueId ld = emitLoad(f, b, p8);

    AliasAnalysis aa(f);
    EXPECT_EQ(aa.alias(p, p), Alias::must);
    EXPECT_EQ(aa.alias(p8, p8b), Alias::must);   // same base+offset
    EXPECT_EQ(aa.alias(p8, p16), Alias::no);     // distinct fields
    EXPECT_EQ(aa.alias(p8, pU), Alias::may);     // unknown offset
    EXPECT_EQ(aa.alias(p, q), Alias::may);       // two args
    EXPECT_EQ(aa.alias(m, p), Alias::no);        // fresh vs arg
    EXPECT_EQ(aa.alias(m, a), Alias::no);        // fresh vs fresh
    EXPECT_EQ(aa.alias(ld, p), Alias::may);      // loaded pointer
    EXPECT_EQ(aa.alias(ld, m), Alias::may);      // loaded vs fresh
}

TEST(Dominators, StraightLineAndBranch)
{
    Function f("dom");
    int e = f.addBlock("entry");
    int l = f.addBlock("left");
    int r = f.addBlock("right");
    int j = f.addBlock("join");
    f.addEdge(e, l);
    f.addEdge(e, r);
    f.addEdge(l, j);
    f.addEdge(r, j);

    emitArg(f, e, "x");

    Dominators dom(f);
    EXPECT_TRUE(dom.blockDominates(e, l));
    EXPECT_TRUE(dom.blockDominates(e, j));
    EXPECT_FALSE(dom.blockDominates(l, j));
    EXPECT_FALSE(dom.blockDominates(l, r));
    EXPECT_TRUE(dom.mayFollow({0, 0}, {3, 0}));
    EXPECT_FALSE(dom.mayFollow({3, 0}, {0, 0}));
}

TEST(Dominators, LoopsReachThemselves)
{
    Function f("loop");
    int e = f.addBlock("entry");
    int body = f.addBlock("body");
    int exit = f.addBlock("exit");
    f.addEdge(e, body);
    f.addEdge(body, body);
    f.addEdge(body, exit);
    emitArg(f, e, "x");

    Dominators dom(f);
    // An instruction later in a loop body may execute before an
    // earlier one (next iteration).
    EXPECT_TRUE(dom.mayFollow({1, 5}, {1, 0}));
    EXPECT_TRUE(dom.blockDominates(body, exit));
}

TEST(ClobberPass, Figure2aListInsert)
{
    Function f = buildListInsert();
    ClobberResult res = analyzeClobbers(f);
    // Exactly one clobber site: the store to lst->hd. The stores to
    // the fresh node never alias transaction inputs.
    EXPECT_EQ(res.refinedSites.size(), 1u);
    EXPECT_EQ(f.at(res.refinedSites[0]).name,
              "lst.hd = n (clobber)");
}

TEST(ClobberPass, DominatedReadIsNotAnInput)
{
    // store p; x = load p; store p, y  -- the read is not an input.
    Function f("dominated_read");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId v = emitArg(f, b, "v");
    emitStore(f, b, p, v, "init");
    ValueId x = emitLoad(f, b, p, "read own write");
    emitStore(f, b, p, x, "write back");

    ClobberResult res = analyzeClobbers(f);
    EXPECT_TRUE(res.candidateReads.empty());
    EXPECT_TRUE(res.refinedSites.empty());
}

TEST(ClobberPass, ReadThenWriteIsAClobber)
{
    Function f("rmw");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId x = emitLoad(f, b, p, "input read");
    ValueId y = emitBinop(f, b, x, "x+1");
    emitStore(f, b, p, y, "clobber");

    ClobberResult res = analyzeClobbers(f);
    EXPECT_EQ(res.candidateReads.size(), 1u);
    ASSERT_EQ(res.refinedSites.size(), 1u);
    EXPECT_EQ(f.at(res.refinedSites[0]).name, "clobber");
}

TEST(ClobberPass, UnexposedCandidateIsRemoved)
{
    // Figure 5 (left): w1 dominates the read (may-alias), w2 after
    // the read must-aliases w1 -> if w2 hits the read's location,
    // the read was never an input.
    Function f("unexposed");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId v = emitArg(f, b, "v");
    ValueId exact = emitGep(f, b, p, 8, "p.f");
    ValueId fuzzy = emitGep(f, b, p, -1, "p.?");
    emitStore(f, b, exact, v, "w1");
    emitLoad(f, b, fuzzy, "candidate read");
    emitStore(f, b, exact, v, "w2 (unexposed)");

    ClobberResult res = analyzeClobbers(f);
    EXPECT_EQ(res.removedUnexposed, 1);
    EXPECT_TRUE(res.refinedSites.empty());
    EXPECT_EQ(res.conservativeSites.size(), 1u);
}

TEST(ClobberPass, ShadowedCandidateIsRemoved)
{
    // Figure 5 (right): both w1 and w2 must-alias the read; w1
    // dominates w2, so w2's clobber is already logged.
    Function f("shadowed");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId x = emitLoad(f, b, p, "input read");
    ValueId y = emitBinop(f, b, x, "f(x)");
    emitStore(f, b, p, y, "w1 (real clobber)");
    emitStore(f, b, p, x, "w2 (shadowed)");

    ClobberResult res = analyzeClobbers(f);
    EXPECT_EQ(res.conservativeSites.size(), 2u);
    ASSERT_EQ(res.refinedSites.size(), 1u);
    EXPECT_EQ(f.at(res.refinedSites[0]).name, "w1 (real clobber)");
    EXPECT_EQ(res.removedShadowed, 1);
}

TEST(ClobberPass, BranchesKeepBothSides)
{
    // A store on only one branch cannot shadow the other branch's.
    Function f("branches");
    int e = f.addBlock("entry");
    int l = f.addBlock("left");
    int r = f.addBlock("right");
    int j = f.addBlock("join");
    f.addEdge(e, l);
    f.addEdge(e, r);
    f.addEdge(l, j);
    f.addEdge(r, j);

    ValueId p = emitArg(f, e, "p");
    ValueId x = emitLoad(f, e, p, "input");
    emitStore(f, l, p, x, "left clobber");
    emitStore(f, r, p, x, "right clobber");

    ClobberResult res = analyzeClobbers(f);
    EXPECT_EQ(res.refinedSites.size(), 2u);
}

TEST(ClobberPass, BothRefinementsFireInOneFunction)
{
    // The unexposed pattern (on p) and the shadowed pattern (on q)
    // concatenated in one body: each removal must fire independently
    // and only the real clobber survives.
    Function f("both_refinements");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId q = emitArg(f, b, "q");
    ValueId v = emitArg(f, b, "v");
    // Unexposed: w1 dominates the fuzzy read and must-aliases w2.
    ValueId exact = emitGep(f, b, p, 8, "p.f");
    ValueId fuzzy = emitGep(f, b, p, -1, "p.?");
    emitStore(f, b, exact, v, "w1");
    emitLoad(f, b, fuzzy, "unexposed read");
    emitStore(f, b, exact, v, "w2 (unexposed)");
    // Shadowed: w3 must-aliases and dominates w4.
    ValueId x = emitLoad(f, b, q, "input read");
    ValueId y = emitBinop(f, b, x, "f(x)");
    emitStore(f, b, q, y, "w3 (real clobber)");
    emitStore(f, b, q, x, "w4 (shadowed)");

    ClobberResult res = analyzeClobbers(f);
    EXPECT_GE(res.removedUnexposed, 1);
    EXPECT_GE(res.removedShadowed, 1);
    ASSERT_EQ(res.refinedSites.size(), 1u);
    EXPECT_EQ(f.at(res.refinedSites[0]).name, "w3 (real clobber)");
}

TEST(ClobberPass, SiteSurvivesOnlyViaSecondPair)
{
    // S pairs with two reads. The (r1, S) pair dies as unexposed
    // (w0 dominates r1 and must-aliases S), but w0 sits on a branch,
    // so it neither unexposes nor shadows the entry read r2 — S must
    // stay instrumented via (r2, S) alone.
    Function f("second_pair");
    int e = f.addBlock("entry");
    int l = f.addBlock("left");
    int r = f.addBlock("right");
    int j = f.addBlock("join");
    f.addEdge(e, l);
    f.addEdge(e, r);
    f.addEdge(l, j);
    f.addEdge(r, j);

    ValueId p = emitArg(f, e, "p");
    ValueId v = emitArg(f, e, "v");
    ValueId pU = emitGep(f, e, p, -1, "p.u");
    ValueId pU2 = emitGep(f, e, p, -1, "p.u2");
    ValueId p16 = emitGep(f, e, p, 16, "p.g");
    emitLoad(f, e, p16, "r2 (wide read)");
    emitStore(f, l, pU, v, "w0");
    emitLoad(f, l, pU2, "r1 (unexposed)");
    emitStore(f, j, pU, v, "S (second-pair survivor)");

    ClobberResult res = analyzeClobbers(f);
    EXPECT_EQ(res.removedUnexposed, 1);
    // Both w0 (clobbers r2 on the left path) and S survive.
    ASSERT_EQ(res.refinedSites.size(), 2u);
    bool sSurvives = false;
    for (const auto& site : res.refinedSites)
        sSurvives |= f.at(site).name == "S (second-pair survivor)";
    EXPECT_TRUE(sSurvives);
    // S's only surviving pair is with the entry read r2.
    int sPairs = 0;
    for (const auto& [rd, st] : res.refinedPairs) {
        if (f.at(st).name != "S (second-pair survivor)")
            continue;
        sPairs++;
        EXPECT_EQ(f.at(rd).name, "r2 (wide read)");
    }
    EXPECT_EQ(sPairs, 1);
}

TEST(ClobberPass, SkiplistMatchesPaperCounts)
{
    // Paper Section 5.9: the pass removes two of five skiplist
    // clobber candidates, leaving three logged per transaction.
    Function f = buildSkiplistInsert(3);
    ClobberResult res = analyzeClobbers(f);
    EXPECT_GT(res.conservativeSites.size(), res.refinedSites.size());
    EXPECT_GE(res.removedShadowed + res.removedUnexposed, 2);
}

TEST(ClobberPass, EveryModuleRefinesOrHolds)
{
    for (const auto& mod : benchmarkModules()) {
        for (const auto& fn : mod.functions) {
            ClobberResult res = analyzeClobbers(fn);
            EXPECT_LE(res.refinedSites.size(),
                      res.conservativeSites.size())
                << mod.name << "/" << fn.name();
            EXPECT_LE(res.refinedPairs.size(),
                      res.conservativePairs.size());
            // Refinement never removes all real clobbers when any
            // read-modify-write exists.
            if (!res.conservativePairs.empty())
                EXPECT_FALSE(res.refinedPairs.empty() &&
                             res.removedUnexposed == 0 &&
                             res.removedShadowed == 0);
        }
    }
}

TEST(ClobberPass, BaselineTraversalIsStable)
{
    Function f = buildMemcachedSet();
    EXPECT_EQ(baselineTraversal(f), baselineTraversal(f));
    EXPECT_NE(baselineTraversal(f),
              baselineTraversal(buildListInsert()));
}

TEST(AliasAnalysis, UnknownOffsetStaysInsideItsObject)
{
    Function f("unknown_off");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId p8 = emitGep(f, b, p, 8);
    ValueId pU = emitGep(f, b, p, -1);
    ValueId pU8 = emitGep(f, b, pU, 8);  // known step off unknown
    ValueId m = emitMalloc(f, b, "m");

    AliasAnalysis aa(f);
    // Unknown offsets may hit any field of the same object...
    EXPECT_EQ(aa.alias(pU, p), Alias::may);
    EXPECT_EQ(aa.alias(pU, p8), Alias::may);
    // ...and stay unknown through further known-offset geps.
    EXPECT_EQ(aa.alias(pU8, p8), Alias::may);
    EXPECT_EQ(aa.alias(pU8, pU), Alias::may);
    // But they cannot escape the base object: a fresh allocation is
    // still provably disjoint.
    EXPECT_EQ(aa.alias(pU, m), Alias::no);
}

TEST(AliasAnalysis, LoadedPointerBases)
{
    Function f("loaded_bases");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId ld1 = emitLoad(f, b, p, "head 1");
    ValueId ld2 = emitLoad(f, b, p, "head 2");
    ValueId g8 = emitGep(f, b, ld1, 8);
    ValueId g8b = emitGep(f, b, ld1, 8);
    ValueId g16 = emitGep(f, b, ld1, 16);
    ValueId m = emitMalloc(f, b, "m");

    AliasAnalysis aa(f);
    // One loaded pointer is one base: field reasoning works off it.
    EXPECT_EQ(aa.alias(g8, g8b), Alias::must);
    EXPECT_EQ(aa.alias(g8, g16), Alias::no);
    // Two loads of the same slot are distinct bases (the slot could
    // have been overwritten between them): only may.
    EXPECT_EQ(aa.alias(ld1, ld2), Alias::may);
    EXPECT_EQ(aa.alias(g8, p), Alias::may);
    // A loaded pointer could target a just-published fresh object.
    EXPECT_EQ(aa.alias(ld1, m), Alias::may);
}

TEST(AliasAnalysis, BasedOnAllocaThroughPointerCopies)
{
    Function f("alloca_copies");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId a = emitAlloca(f, b, "a");
    ValueId copy = emitGep(f, b, a, 0, "copy of a");
    ValueId field = emitGep(f, b, copy, 8, "a.f");
    ValueId unk = emitGep(f, b, copy, -1, "a.?");
    ValueId m = emitMalloc(f, b, "m");

    AliasAnalysis aa(f);
    EXPECT_TRUE(aa.basedOnAlloca(a));
    EXPECT_TRUE(aa.basedOnAlloca(copy));
    EXPECT_TRUE(aa.basedOnAlloca(field));
    EXPECT_TRUE(aa.basedOnAlloca(unk));
    EXPECT_FALSE(aa.basedOnAlloca(p));
    EXPECT_FALSE(aa.basedOnAlloca(m));
    // The copy preserves field reasoning off the alloca base.
    EXPECT_EQ(aa.alias(copy, a), Alias::must);
    EXPECT_EQ(aa.alias(field, a), Alias::no);
}

TEST(AliasAnalysis, ClassifiesBases)
{
    Function f("bases");
    int b = f.addBlock("entry");
    ValueId p = emitArg(f, b, "p");
    ValueId q = emitArg(f, b, "q");
    ValueId a = emitAlloca(f, b, "a");
    ValueId copy = emitGep(f, b, a, 0);
    ValueId m = emitMalloc(f, b, "m");
    ValueId pf = emitGep(f, b, p, 8);
    ValueId ld = emitLoad(f, b, p);
    ValueId sum = emitBinop(f, b, ld);

    AliasAnalysis aa(f);
    EXPECT_EQ(aa.numParams(), 2);
    EXPECT_EQ(aa.base(p), Base::param);
    EXPECT_EQ(aa.paramIndex(p), 0);
    EXPECT_EQ(aa.base(q), Base::param);
    EXPECT_EQ(aa.paramIndex(q), 1);
    EXPECT_EQ(aa.base(pf), Base::param);
    EXPECT_EQ(aa.paramIndex(pf), 0);
    EXPECT_EQ(aa.base(a), Base::alloca_);
    EXPECT_EQ(aa.base(copy), Base::alloca_);
    EXPECT_EQ(aa.root(copy), a);
    EXPECT_EQ(aa.base(m), Base::fresh);
    EXPECT_EQ(aa.base(ld), Base::loaded);
    EXPECT_EQ(aa.base(sum), Base::unknown);
}

TEST(Summaries, SelfLoggingHelperSummary)
{
    // nvm_bump: load, clobber_log, store, flush, fence on its one
    // parameter — the summary must carry all of it.
    IrModule rt = runtimeTxModule();
    ModuleSummaries sums(rt.functions);
    const FunctionSummary* s = sums.lookup("nvm_bump");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->params.size(), 1u);
    EXPECT_TRUE(s->params[0].read);
    EXPECT_TRUE(s->params[0].written);
    EXPECT_TRUE(s->params[0].clobbered);
    EXPECT_TRUE(s->params[0].logged);
    EXPECT_TRUE(s->params[0].flushed);
    EXPECT_FALSE(s->params[0].escapes);
    EXPECT_TRUE(s->deterministic);
    EXPECT_FALSE(s->doesIO);
    EXPECT_TRUE(s->fencesOnExit);
    EXPECT_FALSE(s->callsUnknown);

    // mix64 is pure: no memory effects at all.
    const FunctionSummary* mix = sums.lookup("mix64");
    ASSERT_NE(mix, nullptr);
    EXPECT_FALSE(mix->params[0].read);
    EXPECT_FALSE(mix->params[0].written);
    EXPECT_TRUE(mix->deterministic);
}

TEST(Summaries, EffectsPropagateThroughCallChain)
{
    // caller(p) -> mid(p) -> leaf(p), where only leaf touches
    // memory: the leaf's clobber must surface in caller's summary.
    Function leaf("leaf");
    int lb = leaf.addBlock("entry");
    ValueId lq = emitArg(leaf, lb, "q");
    ValueId lx = emitLoad(leaf, lb, lq);
    emitStore(leaf, lb, lq, lx, "rmw");

    Function mid("mid");
    int mb = mid.addBlock("entry");
    ValueId mq = emitArg(mid, mb, "q");
    emitCall(mid, mb, "leaf", Effect::pure, {mq});

    Function top("top");
    int tb = top.addBlock("entry");
    ValueId tq = emitArg(top, tb, "q");
    emitCall(top, tb, "mid", Effect::pure, {tq});

    ModuleSummaries sums({leaf, mid, top});
    const FunctionSummary* s = sums.lookup("top");
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->params[0].read);
    EXPECT_TRUE(s->params[0].written);
    EXPECT_TRUE(s->params[0].clobbered);
    EXPECT_FALSE(s->params[0].logged);

    // The call-graph edges resolve by symbol name.
    EXPECT_EQ(sums.callees(top),
              std::vector<std::string>{"mid"});
}

TEST(Summaries, NondeterminismIsTransitive)
{
    // top calls helper (declared pure); helper calls external rdtsc
    // declared nondet. Only the fixpoint sees through the lie.
    Function helper("helper");
    int hb = helper.addBlock("entry");
    emitCall(helper, hb, "rdtsc", Effect::nondet, {});

    Function top("top");
    int tb = top.addBlock("entry");
    emitArg(top, tb, "p");
    emitCall(top, tb, "helper", Effect::pure, {});

    ModuleSummaries sums({helper, top});
    EXPECT_FALSE(sums.lookup("helper")->deterministic);
    EXPECT_FALSE(sums.lookup("top")->deterministic);
    EXPECT_TRUE(sums.lookup("helper")->callsUnknown);
}

TEST(Summaries, RecursionConvergesToLeastFixpoint)
{
    // Mutually recursive pair where one side also stores through the
    // shared parameter: both summaries converge, both report the
    // write, and determinism survives (no nondet anywhere).
    Function even("even");
    int eb = even.addBlock("entry");
    ValueId ep = emitArg(even, eb, "p");
    emitCall(even, eb, "odd", Effect::writesNVM, {ep});

    Function odd("odd");
    int ob = odd.addBlock("entry");
    ValueId op = emitArg(odd, ob, "p");
    ValueId ov = emitLoad(odd, ob, op);
    emitStore(odd, ob, op, ov, "rmw");
    emitCall(odd, ob, "even", Effect::writesNVM, {op});

    ModuleSummaries sums({even, odd});
    EXPECT_LT(sums.iterations(), 10);
    for (const char* name : {"even", "odd"}) {
        const FunctionSummary* s = sums.lookup(name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_TRUE(s->params[0].read) << name;
        EXPECT_TRUE(s->params[0].written) << name;
        EXPECT_TRUE(s->params[0].clobbered) << name;
        EXPECT_TRUE(s->deterministic) << name;
    }
}

TEST(Summaries, DeclaredSummaryIsConservative)
{
    FunctionSummary w =
        ModuleSummaries::declaredSummary(Effect::writesNVM, 2);
    ASSERT_EQ(w.params.size(), 2u);
    EXPECT_TRUE(w.params[0].written);
    EXPECT_TRUE(w.params[0].clobbered);
    EXPECT_FALSE(w.params[0].logged);
    EXPECT_TRUE(w.deterministic);
    EXPECT_TRUE(w.callsUnknown);

    FunctionSummary p =
        ModuleSummaries::declaredSummary(Effect::pure, 1);
    EXPECT_FALSE(p.params[0].written);
    EXPECT_FALSE(p.callsUnknown);

    EXPECT_FALSE(ModuleSummaries::declaredSummary(Effect::nondet, 0)
                     .deterministic);
    EXPECT_TRUE(
        ModuleSummaries::declaredSummary(Effect::io, 0).doesIO);
    EXPECT_TRUE(
        ModuleSummaries::declaredSummary(Effect::volatileWrite, 0)
            .volatileEscape);
}

TEST(ClobberPass, InterproceduralFindsCalleeHiddenClobber)
{
    // The acceptance pin: a tx whose only memory effect hides inside
    // a callee. Intraprocedurally there are no loads or stores, so
    // the pass provably finds nothing; with summaries the call site
    // itself becomes the clobber site.
    Function helper("bump");
    int hb = helper.addBlock("entry");
    ValueId q = emitArg(helper, hb, "q");
    ValueId x = emitLoad(helper, hb, q);
    emitStore(helper, hb, q, x, "rmw in callee");

    Function tx("tx");
    int tb = tx.addBlock("entry");
    ValueId p = emitArg(tx, tb, "p");
    emitCall(tx, tb, "bump", Effect::writesNVM, {p},
             "bump(p)");

    ClobberResult intra = analyzeClobbers(tx);
    EXPECT_TRUE(intra.conservativeSites.empty());
    EXPECT_TRUE(intra.refinedSites.empty());

    ModuleSummaries sums({helper, tx});
    ClobberResult inter = analyzeClobbers(tx, sums);
    ASSERT_EQ(inter.refinedSites.size(), 1u);
    EXPECT_EQ(tx.at(inter.refinedSites[0]).op, Op::call);
    EXPECT_EQ(tx.at(inter.refinedSites[0]).callee, "bump");
}

TEST(ClobberPass, CalleeWriteNeverLicensesRefinement)
{
    // A callee write targets unknown offsets inside the argument's
    // object, so it must never count as a must-alias store: the
    // caller's own read-modify-write below stays a clobber site.
    Function helper("scribble");
    int hb = helper.addBlock("entry");
    ValueId q = emitArg(helper, hb, "q");
    emitStore(helper, hb, q, q, "blind store in callee");

    Function tx("tx");
    int tb = tx.addBlock("entry");
    ValueId p = emitArg(tx, tb, "p");
    emitCall(tx, tb, "scribble", Effect::writesNVM, {p});
    ValueId x = emitLoad(tx, tb, p, "still an input read");
    emitStore(tx, tb, p, x, "caller clobber");

    ModuleSummaries sums({helper, tx});
    ClobberResult res = analyzeClobbers(tx, sums);
    // The call's inexact write cannot discharge the load, so the
    // caller store keeps its clobber pairing.
    bool callerSite = false;
    for (const auto& site : res.refinedSites)
        callerSite |= tx.at(site).name == "caller clobber";
    EXPECT_TRUE(callerSite);
}

TEST(ClobberPass, SummaryAwareMatchesIntraOnCallFreeCode)
{
    // On call-free functions the two overloads must agree exactly.
    for (const auto& mod : benchmarkModules()) {
        ModuleSummaries sums(mod.functions);
        for (const auto& fn : mod.functions) {
            bool hasCall = !fn.collect([](const Instr& i) {
                                 return i.op == Op::call;
                             }).empty();
            if (hasCall)
                continue;
            ClobberResult intra = analyzeClobbers(fn);
            ClobberResult inter = analyzeClobbers(fn, sums);
            EXPECT_EQ(intra.refinedSites.size(),
                      inter.refinedSites.size())
                << mod.name << "/" << fn.name();
            EXPECT_EQ(intra.conservativeSites.size(),
                      inter.conservativeSites.size());
        }
    }
}

}  // namespace
}  // namespace cnvm::cir
