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
#include "apps/kv/kv_server.h"
#include "bench_common.h"
#include "cir/builders.h"
#include "cir/clobber_pass.h"
#include "workloads/memslap.h"

namespace {

using namespace cnvm;
using stats::Counter;

bench::Csv csv("fig13.csv",
               "fig13: workload,conservative_tput,refined_tput,"
               "improvement_pct,extra_entries_pct,extra_bytes_pct");

struct Run {
    double tput;
    double entries;
    double bytes;
};

Run
result(size_t ops, double simSeconds, const stats::Snapshot& d)
{
    return {static_cast<double>(ops) / simSeconds,
            static_cast<double>(d[Counter::clobberEntries]),
            static_cast<double>(d[Counter::clobberBytes])};
}

Run
runStructure(const std::string& structure, rt::ClobberPolicy policy,
             size_t ops)
{
    bench::KvEnv env(txn::RuntimeKind::clobber, structure, policy);
    double simSeconds = 0;
    auto d = bench::counted([&] { simSeconds = env.inserts(1, ops); });
    return result(ops, simSeconds, d);
}

Run
runMemcached(double insertFraction, rt::ClobberPolicy policy,
             size_t ops)
{
    bench::Env env(txn::RuntimeKind::clobber, policy);
    auto eng = env.engine();
    apps::KvServer server(eng);
    wl::Memslap gen(insertFraction, ops, 3);

    double simSeconds = 0;
    ds::LookupResult sink;
    auto d = bench::counted([&] {
        simSeconds = sim::Executor(1).run(
            ops, [&](sim::ThreadCtx&, size_t) {
                auto req = gen.next();
                if (req.op == wl::KvOp::set)
                    server.set(req.key, req.value);
                else
                    server.get(req.key, &sink);
            });
    });
    return result(ops, simSeconds, d);
}

/**
 * One workload's row: `run(policy, ops)` under the conservative and
 * then the refined policy. Returns the refined run's seconds.
 */
template <typename Fn>
double
compare(benchmark::State& state, const std::string& name, Fn run)
{
    size_t ops = bench::totalOps(25000);
    Run cons = run(rt::ClobberPolicy::conservative, ops);
    Run refined = run(rt::ClobberPolicy::refined, ops);
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
    csv.row("%s,%.0f,%.0f,%.2f,%.1f,%.1f", name.c_str(), cons.tput,
            refined.tput, improvement, extraEntries, extraBytes);
    return static_cast<double>(ops) / refined.tput;
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

}  // namespace

int
main(int argc, char** argv)
{
    for (const auto& structure : ds::benchmarkStructures()) {
        bench::addCase("fig13/" + structure,
                       [structure](benchmark::State& st) {
                           return compare(
                               st, structure,
                               std::bind_front(runStructure, structure));
                       });
    }
    for (const auto& mix : wl::memslapMixes()) {
        std::string name = std::string("memcached-") + mix.name;
        bench::addCase("fig13/" + name, [name, mix](benchmark::State& st) {
            return compare(st, name, std::bind_front(runMemcached,
                                                     mix.insertFraction));
        });
    }
    return bench::runFigure(argc, argv, printStaticCounts);
}
