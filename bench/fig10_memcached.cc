/**
 * @file
 * Figure 10: memcached-model throughput under the four memslap
 * workload mixes (95/75/25/5 % insertion), scaled across threads,
 * for Clobber-NVM, PMDK and Mnemosyne — with both spinlock and
 * reader-writer shard locks (the paper replaced memcached's coarse
 * lock with exactly these).
 *
 * Expected shape: Clobber-NVM wins everywhere; its margin grows with
 * the insert fraction; Mnemosyne trails PMDK on search-heavy mixes
 * (redo's long read path); spinlocks favor insert-heavy mixes,
 * reader-writer locks favor search-heavy ones.
 */
#include "apps/kv/kv_server.h"
#include "bench_common.h"
#include "workloads/memslap.h"

namespace {

using namespace cnvm;

bench::Csv csv("fig10.csv", "fig10: system,workload,lockmode,threads,"
                            "throughput_ops_per_sec");

const char*
lockName(apps::KvServer::LockMode mode)
{
    return mode == apps::KvServer::LockMode::spin ? "spinlock" : "rwlock";
}

double
runFig10(benchmark::State& state, txn::RuntimeKind kind,
         const wl::MemslapMix& mix, apps::KvServer::LockMode lockMode)
{
    auto threads = static_cast<unsigned>(state.range(0));
    size_t ops = bench::totalOps(30000);

    bench::Env env(kind, rt::ClobberPolicy::refined, 768ULL << 20);
    auto eng = env.engine();
    apps::KvServer::Config cfg;
    cfg.lockMode = lockMode;
    apps::KvServer server(eng, 0, cfg);

    // Per-thread request streams (memslap clients).
    std::vector<wl::Memslap> streams;
    streams.reserve(threads);
    for (unsigned t = 0; t < threads; t++)
        streams.emplace_back(mix.insertFraction, ops, 1000 + t);

    // Warm the store so searches hit.
    {
        wl::Memslap warm(1.0, ops, 7);
        for (size_t i = 0; i < ops / 2; i++) {
            auto req = warm.next();
            server.set(req.key, req.value);
        }
    }

    sim::Executor exec(threads);
    size_t perThread = ops / threads;
    ds::LookupResult sink;
    double simSeconds =
        exec.run(perThread, [&](sim::ThreadCtx& ctx, size_t) {
            auto req = streams[ctx.tid()].next();
            if (req.op == wl::KvOp::set)
                server.set(req.key, req.value);
            else
                server.get(req.key, &sink);
        });
    double tput =
        static_cast<double>(perThread * threads) / simSeconds;
    state.counters["ops_per_sec"] = tput;
    csv.row("%s,%s,%s,%u,%.0f", rt::kindName(kind), mix.name,
            lockName(lockMode), threads, tput);
    return simSeconds;
}

}  // namespace

int
main(int argc, char** argv)
{
    for (const auto& mix : wl::memslapMixes()) {
        for (auto kind :
             {txn::RuntimeKind::clobber, txn::RuntimeKind::undo,
              txn::RuntimeKind::redo}) {
            for (auto lockMode : {apps::KvServer::LockMode::spin,
                                  apps::KvServer::LockMode::rw}) {
                std::string name = std::string("fig10/") +
                                   rt::kindName(kind) + "/" + mix.name +
                                   "/" + lockName(lockMode);
                auto* b = bench::addCase(
                    name, [kind, mix, lockMode](benchmark::State& st) {
                        return runFig10(st, kind, mix, lockMode);
                    });
                for (unsigned t : bench::threadSweep())
                    b->Arg(t);
            }
        }
    }
    return bench::runFigure(argc, argv);
}
