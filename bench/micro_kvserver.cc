/**
 * @file
 * KV service throughput/latency matrix: the full serving stack
 * (TCP loopback accept → workers that own their connections → group
 * commit → persistent store) swept over protocol × worker count ×
 * batch cap × workload mix.
 *
 * This is the paper's memcached+memslap experiment (Section 5.6)
 * rebuilt on the network server: each configuration boots a fresh
 * in-process server on an ephemeral loopback port and drives it with
 * the pipelined load generator (window 32, memslap-style 64-byte
 * values). batch=1 vs batch=8 isolates what group commit buys on a
 * write-heavy mix: with one transaction per mutation every set pays
 * its own begin persist and commit fence; with batching a
 * window's worth of mutations share them.
 *
 * Output: argv[1] (default BENCH_kvserver.current.json);
 * `scripts/bench.sh kvserver` merges it into BENCH_kvserver.json.
 * Latency percentiles are *window* round trips (32 pipelined ops), in
 * microseconds. Each row also carries the persistence columns per
 * committed transaction: one per fused batch of mutations, one per
 * read-only get.
 *
 * The sweep timeshares server and client threads on whatever cores
 * the host has, so every timing is reported as its median and range
 * over CNVM_REPS interleaved reps.
 *
 * Knobs: CNVM_OPS (per config, default 60000), CNVM_POOL_MB,
 * CNVM_REPS, CNVM_SMOKE=1 (tiny run to prove the stack works).
 */
#include <vector>

#include "apps/kv/kv_server.h"
#include "bench_common.h"
#include "server/kv_service.h"
#include "server/loadgen.h"
#include "server/tcp_server.h"

using namespace cnvm;

namespace {

struct Mix {
    const char* name;
    double writeRatio;
};

void
runConfig(txn::RuntimeKind kind, const Mix& mix, unsigned workers,
          unsigned batch, size_t ops, bench::Row& row)
{
    bench::Env env(kind);
    txn::Engine eng = env.engine();

    apps::KvServer::Config kvCfg;
    kvCfg.shards = 64;
    apps::KvServer kv(eng, 0, kvCfg);

    server::ServiceConfig svcCfg;
    svcCfg.workers = workers;
    svcCfg.batchMax = batch;
    server::KvService svc(kv, svcCfg);
    // Taken before any server thread starts: stop() joins them all,
    // and their counters retire into stats::aggregate().
    auto before = stats::aggregate();
    svc.start();

    server::TcpServer tcp(svc, kv, server::TcpConfig{});
    tcp.start();

    server::LoadConfig load;
    load.port = tcp.port();
    load.connections = std::max(2u, workers);
    load.totalOps = ops;
    load.window = 32;
    load.keySpace = 4000;
    load.valueLen = 64;  // the paper's memslap value size
    load.writeRatio = mix.writeRatio;
    load.seed = 42;
    auto res = server::runLoad(load);

    tcp.stop();
    svc.stop();
    auto st = svc.totalStats();

    row.dim("system", rt::kindName(kind))
        .dim("mix", mix.name)
        .dim("workers", workers)
        .dim("batch", batch)
        .dim("conns", load.connections)
        .timing("ops_per_sec", res.opsPerSec)
        .timing("p50_us", res.p50us)
        .timing("p95_us", res.p95us)
        .timing("p99_us", res.p99us)
        .count("avg_batch", st.batches > 0 ? double(st.batchedOps) /
                                                 double(st.batches)
                                           : 1.0)
        .count("overflows", static_cast<double>(st.overflows))
        .persistence(stats::aggregate() - before);
}

}  // namespace

int
main(int argc, char** argv)
{
    size_t ops = bench::totalOps(60000);
    std::vector<txn::RuntimeKind> systems = {txn::RuntimeKind::clobber,
                                             txn::RuntimeKind::undo,
                                             txn::RuntimeKind::redo};
    std::vector<Mix> mixes = {{"write100", 1.0},
                              {"write95", 0.95},
                              {"mixed25", 0.25}};
    std::vector<unsigned> workerSweep = {1, 2, 4};
    std::vector<unsigned> batches = {1, 8};
    if (bench::smokeMode()) {
        systems = {txn::RuntimeKind::clobber};
        workerSweep = {2};
    }

    struct Cell {
        txn::RuntimeKind kind;
        const Mix* mix;
        unsigned workers, batch;
    };
    std::vector<Cell> cells;
    for (auto kind : systems) {
        for (const auto& mix : mixes) {
            for (unsigned w : workerSweep) {
                for (unsigned b : batches)
                    cells.push_back({kind, &mix, w, b});
            }
        }
    }

    bench::Report report("kvserver");
    report.param("ops", static_cast<double>(ops)).param("window", 32);
    report.sweep(cells.size(), [&](size_t i, bench::Row& row) {
        const Cell& c = cells[i];
        runConfig(c.kind, *c.mix, c.workers, c.batch, ops, row);
    });
    return report.write(argc > 1 ? argv[1]
                                 : "BENCH_kvserver.current.json")
               ? 0
               : 1;
}
