/**
 * @file
 * Figure 6: YCSB-Load insert throughput of the four persistent data
 * structures under Clobber-NVM, PMDK, Mnemosyne and Atlas, scaled from
 * 1 to 24 threads.
 *
 * Paper setup: 1M key-value pairs, 8-byte keys (32-byte for B+Tree),
 * 256-byte values. The thread sweep runs on the logical-thread
 * executor (see src/sim): reported seconds are simulated time.
 *
 * Expected shape: Clobber-NVM leads everywhere single-threaded
 * (≈1.8x PMDK, ≈4.3x Atlas); B+Tree scales best (per-node locks);
 * Mnemosyne catches up at high thread counts on the global-lock
 * structures (rbtree, skiplist).
 */
#include "bench_common.h"

namespace {

using namespace cnvm;

bench::Csv csv("fig6.csv",
               "fig6: system,structure,threads,run,valsize,"
               "throughput_ops_per_sec");

}  // namespace

int
main(int argc, char** argv)
{
    for (const auto& structure : ds::benchmarkStructures()) {
        for (auto kind :
             {txn::RuntimeKind::clobber, txn::RuntimeKind::undo,
              txn::RuntimeKind::redo, txn::RuntimeKind::atlas}) {
            auto run = [structure, kind](benchmark::State& state) {
                auto threads = static_cast<unsigned>(state.range(0));
                size_t perThread = bench::totalOps(40000) / threads;
                bench::KvEnv env(kind, structure);
                double simSeconds = env.inserts(threads, perThread);
                double tput = static_cast<double>(perThread * threads) /
                              simSeconds;
                state.counters["ops_per_sec"] = tput;
                csv.row("%s,%s,%u,0,256,%.0f", rt::kindName(kind),
                        structure.c_str(), threads, tput);
                return simSeconds;
            };
            auto* b = bench::addCase(std::string("fig6/") +
                                         rt::kindName(kind) + "/" +
                                         structure,
                                     run);
            for (unsigned t : bench::threadSweep())
                b->Arg(t);
        }
    }
    return bench::runFigure(argc, argv);
}
