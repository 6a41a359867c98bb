/**
 * @file
 * Ablation: lazy vs eager persistence of the transaction begin record
 * (a design choice DESIGN.md calls out).
 *
 * Clobber-NVM's v_log entry — and PMDK's begin record — only has to
 * be durable before the transaction's first store can tear anything,
 * so this library stages it volatilely and persists on first use.
 * The ablation measures what eager persistence (two extra fences on
 * every read-only transaction) costs across YCSB read/write mixes.
 */
#include "bench_common.h"
#include "runtimes/base.h"

namespace {

using namespace cnvm;

bench::Csv csv("ablation_lazy_begin.csv",
               "ablation: system,workload,mode,"
               "throughput_ops_per_sec,fences_per_op");

double
runAblation(benchmark::State& state, txn::RuntimeKind kind,
            wl::YcsbKind workload, bool eager)
{
    size_t ops = bench::totalOps(25000);
    bench::KvEnv env(kind, "hashmap");
    dynamic_cast<rt::RuntimeBase*>(env.runtime.get())
        ->setEagerBeginPersist(eager);
    // Preload the key space so reads hit.
    env.preload(ops / 2, 64);
    std::vector<wl::Ycsb> streams;
    streams.emplace_back(workload, ops / 2, env.keyLen, 64);

    double simSeconds = 0;
    auto d = bench::counted([&] { simSeconds = env.mix(streams, ops); });
    double tput = static_cast<double>(ops) / simSeconds;
    double fences = static_cast<double>(d[stats::Counter::fences]) /
                    static_cast<double>(ops);
    state.counters["ops_per_sec"] = tput;
    state.counters["fences_per_op"] = fences;
    csv.row("%s,%s,%s,%.0f,%.3f", rt::kindName(kind),
            wl::ycsbKindName(workload), eager ? "eager" : "lazy", tput,
            fences);
    return simSeconds;
}

}  // namespace

int
main(int argc, char** argv)
{
    for (auto kind :
         {txn::RuntimeKind::clobber, txn::RuntimeKind::undo}) {
        for (auto workload :
             {wl::YcsbKind::a, wl::YcsbKind::b, wl::YcsbKind::c}) {
            for (bool eager : {false, true}) {
                std::string name =
                    std::string("ablation_begin/") + rt::kindName(kind) +
                    "/ycsb-" + wl::ycsbKindName(workload) + "/" +
                    (eager ? "eager" : "lazy");
                bench::addCase(name, [kind, workload,
                                      eager](benchmark::State& st) {
                    return runAblation(st, kind, workload, eager);
                });
            }
        }
    }
    return bench::runFigure(argc, argv);
}
