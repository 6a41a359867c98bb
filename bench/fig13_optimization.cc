/**
 * @file
 * Figure 13: effectiveness of the dependency-analysis refinement.
 *
 * Two views, matching Section 5.9:
 *  - static: the compiler pass's clobber-site counts before vs after
 *    removing unexposed/shadowed candidates, per workload module;
 *  - dynamic: throughput and clobber_log volume of the refined vs
 *    conservative runtime policies on the data-structure benchmarks
 *    and the memcached workload mixes.
 *
 * Paper: skiplist improves up to 15% (2 of 5 candidates removed);
 * memcached's 95%-insert mix improves ~15% (32% fewer entries, 47%
 * fewer bytes unoptimized); B+Tree benefits least.
 */
#include <benchmark/benchmark.h>

#include "apps/kv/kv_server.h"
#include "bench_common.h"
#include "cir/builders.h"
#include "cir/clobber_pass.h"
#include "structures/kv.h"
#include "workloads/memslap.h"
#include "workloads/ycsb.h"

namespace {

using namespace cnvm;
using stats::Counter;

bench::Csv& csv()
{
    static bench::Csv c("fig13.csv");
    static bool once = [] {
        c.comment("fig13: workload,conservative_tput,refined_tput,"
                  "improvement_pct,extra_entries_pct,extra_bytes_pct");
        return true;
    }();
    (void)once;
    return c;
}

struct Run {
    double tput;
    double entries;
    double bytes;
};

Run
runStructure(const std::string& structure, rt::ClobberPolicy policy,
             size_t ops)
{
    bench::Env env(txn::RuntimeKind::clobber, policy);
    auto eng = env.engine();
    auto kv = ds::makeKv(structure, eng);
    size_t keyLen = structure == "bptree" ? 32 : 8;
    wl::Ycsb ycsb(wl::YcsbKind::load, ops, keyLen, 256);

    stats::resetAll();
    sim::Executor exec(1);
    double simSeconds =
        exec.run(ops, [&](sim::ThreadCtx&, size_t i) {
            kv->insert(ycsb.keyOf(i), ycsb.valueOf(i));
        });
    auto d = stats::aggregate();
    return {static_cast<double>(ops) / simSeconds,
            static_cast<double>(d[Counter::clobberEntries]),
            static_cast<double>(d[Counter::clobberBytes])};
}

Run
runMemcached(double insertFraction, rt::ClobberPolicy policy,
             size_t ops)
{
    bench::Env env(txn::RuntimeKind::clobber, policy);
    auto eng = env.engine();
    apps::KvServer server(eng);
    wl::Memslap gen(insertFraction, ops, 3);

    stats::resetAll();
    sim::Executor exec(1);
    ds::LookupResult sink;
    double simSeconds =
        exec.run(ops, [&](sim::ThreadCtx&, size_t) {
            auto req = gen.next();
            if (req.op == wl::KvOp::set)
                server.set(req.key, req.value);
            else
                server.get(req.key, &sink);
        });
    auto d = stats::aggregate();
    return {static_cast<double>(ops) / simSeconds,
            static_cast<double>(d[Counter::clobberEntries]),
            static_cast<double>(d[Counter::clobberBytes])};
}

void
report(benchmark::State& state, const std::string& name,
       const Run& cons, const Run& refined, size_t ops)
{
    state.SetIterationTime(static_cast<double>(ops) / refined.tput);
    double improvement = (refined.tput / cons.tput - 1.0) * 100.0;
    double extraEntries =
        refined.entries > 0
            ? (cons.entries / refined.entries - 1.0) * 100.0
            : 0.0;
    double extraBytes =
        refined.bytes > 0
            ? (cons.bytes / refined.bytes - 1.0) * 100.0
            : 0.0;
    state.counters["improvement_pct"] = improvement;
    state.counters["unopt_extra_entries_pct"] = extraEntries;
    state.counters["unopt_extra_bytes_pct"] = extraBytes;
    csv().row("%s,%.0f,%.0f,%.2f,%.1f,%.1f", name.c_str(), cons.tput,
              refined.tput, improvement, extraEntries, extraBytes);
}

void
runFig13Structure(benchmark::State& state,
                  const std::string& structure)
{
    size_t ops = bench::totalOps(25000);
    for (auto _ : state) {
        Run cons = runStructure(structure,
                                rt::ClobberPolicy::conservative, ops);
        Run refined =
            runStructure(structure, rt::ClobberPolicy::refined, ops);
        report(state, structure, cons, refined, ops);
    }
}

void
runFig13Memcached(benchmark::State& state, const wl::MemslapMix& mix)
{
    size_t ops = bench::totalOps(25000);
    for (auto _ : state) {
        Run cons = runMemcached(mix.insertFraction,
                                rt::ClobberPolicy::conservative, ops);
        Run refined = runMemcached(mix.insertFraction,
                                   rt::ClobberPolicy::refined, ops);
        report(state, std::string("memcached-") + mix.name, cons,
               refined, ops);
    }
}

/** Static view: the pass's own removal counts per module. */
void
printStaticCounts()
{
    std::printf("\n=== Compiler-pass refinement per module "
                "(static view) ===\n");
    for (const auto& mod : cir::benchmarkModules()) {
        // The module's first function is its workload's own; the rest
        // are copies and shared helpers.
        auto res = cir::analyzeClobbers(mod.functions.front());
        std::printf("  %-10s %zu conservative sites -> %zu refined "
                    "(%d unexposed, %d shadowed pairs removed)\n",
                    mod.name.c_str(), res.conservativeSites.size(),
                    res.refinedSites.size(), res.removedUnexposed,
                    res.removedShadowed);
    }
}

void
registerAll()
{
    for (const auto& structure : ds::benchmarkStructures()) {
        std::string name = std::string("fig13/") + structure;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [structure](benchmark::State& st) {
                runFig13Structure(st, structure);
            })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
    for (const auto& mix : wl::memslapMixes()) {
        std::string name = std::string("fig13/memcached-") + mix.name;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [mix](benchmark::State& st) { runFig13Memcached(st, mix); })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    registerAll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printStaticCounts();
    benchmark::Shutdown();
    return 0;
}
