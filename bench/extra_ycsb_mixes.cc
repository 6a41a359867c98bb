/**
 * @file
 * Extra (beyond the paper's figures): YCSB-A/B/C mixed workloads on
 * the four data structures.
 *
 * The paper's Figure 6 runs YCSB-Load (inserts only); this companion
 * sweep adds the standard read/update mixes, which separate the
 * systems along a second axis: redo logging's read interposition
 * hurts as the read share grows, while the undo-family systems
 * (PMDK, Clobber-NVM) read at native speed, and Clobber-NVM's lazy
 * begin makes read-only transactions free of fences entirely.
 */
#include "bench_common.h"

namespace {

using namespace cnvm;

bench::Csv csv("extra_ycsb_mixes.csv",
               "extra: system,structure,workload,threads,"
               "throughput_ops_per_sec");

double
runMix(benchmark::State& state, const std::string& structure,
       txn::RuntimeKind kind, wl::YcsbKind workload)
{
    auto threads = static_cast<unsigned>(state.range(0));
    size_t ops = bench::totalOps(30000);
    bench::KvEnv env(kind, structure);

    // Load phase (not measured).
    size_t records = ops / 2;
    env.preload(records, 256);

    std::vector<wl::Ycsb> streams;
    streams.reserve(threads);
    for (unsigned t = 0; t < threads; t++)
        streams.emplace_back(workload, records, env.keyLen, 256, 100 + t);

    size_t perThread = ops / threads;
    double simSeconds = env.mix(streams, perThread);
    double tput = static_cast<double>(perThread * threads) / simSeconds;
    state.counters["ops_per_sec"] = tput;
    csv.row("%s,%s,%s,%u,%.0f", rt::kindName(kind), structure.c_str(),
            wl::ycsbKindName(workload), threads, tput);
    return simSeconds;
}

}  // namespace

int
main(int argc, char** argv)
{
    for (const auto& structure : ds::benchmarkStructures()) {
        for (auto kind :
             {txn::RuntimeKind::clobber, txn::RuntimeKind::undo,
              txn::RuntimeKind::redo}) {
            for (auto workload : {wl::YcsbKind::a, wl::YcsbKind::b,
                                  wl::YcsbKind::c}) {
                std::string name = std::string("extra_ycsb/") +
                                   rt::kindName(kind) + "/" + structure +
                                   "/ycsb-" + wl::ycsbKindName(workload);
                bench::addCase(name,
                               [structure, kind,
                                workload](benchmark::State& st) {
                                   return runMix(st, structure, kind,
                                                 workload);
                               })
                    ->Arg(1)
                    ->Arg(8);
            }
        }
    }
    return bench::runFigure(argc, argv);
}
