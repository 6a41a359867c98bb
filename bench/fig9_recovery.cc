/**
 * @file
 * Figure 9: recovery overhead after a random crash, Clobber-NVM vs
 * PMDK, on the four data structures.
 *
 * Method (paper Section 5.5): load the structure, crash a random
 * insert mid-transaction, then measure the three recovery steps —
 * reopening the pool (the allocator's bitmap rebuild, the paper's
 * "pool management" and the largest of the three), applying the log
 * (undo rollback vs clobber_log restore), and, for Clobber-NVM,
 * re-executing the interrupted transaction. Latencies here are real
 * wall time of the recovery code.
 *
 * On top of the figure, the binary always runs an instant-restart
 * sweep: time-to-first-transaction (TTFT) after a crash, full restart
 * (the allocator's one bitmap scan + recovery drained inline) vs lazy
 * restart (deferred scan + triage + first-touch heal), across pool
 * sizes.
 * Results land in a JSON report (argv[1], default
 * BENCH_recovery.current.json) that `scripts/bench.sh recovery`
 * merges into BENCH_recovery.json.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "structures/kv.h"
#include "workloads/ycsb.h"

namespace {

using namespace cnvm;

bench::Csv& csv()
{
    static bench::Csv c("fig9.csv");
    static bool once = [] {
        c.comment("fig9: system,structure,crash_point,"
                  "recover_total_us,rebuild_us");
        return true;
    }();
    (void)once;
    return c;
}

void
runFig9(benchmark::State& state, const std::string& structure,
        txn::RuntimeKind kind)
{
    size_t ops = bench::totalOps(20000) / 2;
    size_t keyLen = structure == "bptree" ? 32 : 8;
    Xorshift rng(2026);

    double totalUs = 0;
    double rebuildUs = 0;
    int runs = 0;
    for (auto _ : state) {
        bench::Env env(kind);
        auto eng = env.engine();
        auto kv = ds::makeKv(structure, eng);
        wl::Ycsb ycsb(wl::YcsbKind::load, ops, keyLen, 256);
        for (size_t i = 0; i < ops; i++)
            kv->insert(ycsb.keyOf(i), ycsb.valueOf(i));

        // Crash a random insert at a random write.
        uint64_t trap = 1 + rng.nextUint(30);
        env.pool->armWriteTrap(trap);
        bool crashed = false;
        try {
            kv->insert(ycsb.keyOf(ops + 1), ycsb.valueOf(ops + 1));
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        env.pool->armWriteTrap(0);
        if (crashed)
            env.pool->simulateCrash(rng.next());

        // Recovery = allocator rebuild ("pool open") + log apply +
        // (clobber) re-execution. recover() performs all three; the
        // rebuild share is measured separately afterwards.
        auto t0 = std::chrono::steady_clock::now();
        env.runtime->recover();
        auto t1 = std::chrono::steady_clock::now();
        env.heap->rebuild();
        auto t2 = std::chrono::steady_clock::now();

        double recUs =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        double rbUs =
            std::chrono::duration<double, std::micro>(t2 - t1).count();
        state.SetIterationTime(
            std::chrono::duration<double>(t1 - t0).count());
        totalUs += recUs;
        rebuildUs += rbUs;
        runs++;
        csv().row("%s,%s,%lu,%.1f,%.1f", bench::systemName(kind),
                  structure.c_str(), trap, recUs, rbUs);
    }
    if (runs > 0) {
        state.counters["recover_us"] = totalUs / runs;
        state.counters["pool_mgmt_us"] = rebuildUs / runs;
    }
}

double
usBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/**
 * Crash a loaded hashmap, then restart the way a fresh process would:
 * construct the allocator and runtime over the surviving pool and run
 * recovery in `mode`. TTFT is the wall time from the first restart
 * instruction to the first committed transaction. The full arm scans
 * the bitmap once, in the allocator's constructor, and the session
 * finds nothing left to scan. The lazy arm defers the scan (the
 * deferred constructor + incremental reserve pulls) and
 * heals the dirty slot on first touch; the drain to a fully healed
 * pool happens after the clock stops, exactly as the background healer
 * would do it in a server. The persistence columns cover the timed
 * window: the restart plus the first transaction.
 */
void
runTtftCell(txn::RuntimeKind kind, size_t poolMB, bool lazy,
            size_t ops, Xorshift& rng, bench::Row& row)
{
    bench::Env env(kind, rt::ClobberPolicy::refined, poolMB << 20);
    uint64_t rootOff = 0;
    {
        auto eng = env.engine();
        auto kv = ds::makeKv("hashmap", eng);
        rootOff = kv->rootOff();
        wl::Ycsb ycsb(wl::YcsbKind::load, ops + 2, 8, 256);
        for (size_t i = 0; i < ops; i++)
            kv->insert(ycsb.keyOf(i), ycsb.valueOf(i));

        env.pool->armWriteTrap(1 + rng.nextUint(30));
        bool crashed = false;
        try {
            kv->insert(ycsb.keyOf(ops), ycsb.valueOf(ops));
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        env.pool->armWriteTrap(0);
        if (crashed)
            env.pool->simulateCrash(rng.next());
    }

    wl::Ycsb ycsb(wl::YcsbKind::load, ops + 2, 8, 256);
    auto before = stats::aggregate();
    auto t0 = std::chrono::steady_clock::now();
    env.heap =
        std::make_unique<alloc::PmAllocator>(*env.pool, lazy);
    env.runtime = rt::makeRuntime(kind, *env.pool, *env.heap,
                                  rt::ClobberPolicy::refined);
    auto eng = env.engine();
    eng.recover(lazy ? txn::RecoveryMode::lazy
                     : txn::RecoveryMode::full,
                /* backgroundHealer */ false);
    auto tAdmit = std::chrono::steady_clock::now();
    auto kv = ds::makeKv("hashmap", eng, rootOff);
    kv->insert(ycsb.keyOf(ops + 1), ycsb.valueOf(ops + 1));
    auto tFirst = std::chrono::steady_clock::now();

    row.timing("recover_us", usBetween(t0, tAdmit))
        .timing("ttft_us", usBetween(t0, tFirst))
        .count("pending_at_first_tx",
               static_cast<double>(eng.recoveryPending()))
        .persistence(stats::aggregate() - before);
    eng.finishRecovery();  // off the clock: the healer's share
}

/**
 * The instant-restart sweep: full vs lazy TTFT over clobber and undo
 * at increasing pool sizes. Full TTFT grows with the pool, since one
 * bitmap scan runs before the first transaction; lazy TTFT runs no
 * scan first and stays flat. Returns false when `path` cannot be
 * written.
 */
bool
runTtftSweep(const char* path)
{
    size_t ops = bench::totalOps(20000) / 2;
    std::vector<size_t> poolsMB =
        bench::smokeMode() ? std::vector<size_t>{64}
                           : std::vector<size_t>{64, 256, 512};
    struct Cell {
        txn::RuntimeKind kind;
        size_t poolMB;
        bool lazy;
        Xorshift rng;  ///< crash points, continued across reps
    };
    std::vector<Cell> cells;
    for (auto kind :
         {txn::RuntimeKind::clobber, txn::RuntimeKind::undo}) {
        for (size_t mb : poolsMB) {
            for (bool lazy : {false, true})
                cells.push_back({kind, mb, lazy,
                                 Xorshift(2026 + mb + (lazy ? 1 : 0))});
        }
    }

    bench::Report report("recovery");
    report.param("ops", static_cast<double>(ops));
    report.sweep(cells.size(), [&](size_t i, bench::Row& row) {
        Cell& c = cells[i];
        row.dim("system", bench::systemName(c.kind))
            .dim("pool_mb", static_cast<double>(c.poolMB))
            .dim("mode", c.lazy ? "lazy" : "full");
        runTtftCell(c.kind, c.poolMB, c.lazy, ops, c.rng, row);
    });
    return report.write(path);
}

void
registerAll()
{
    for (const auto& structure : ds::benchmarkStructures()) {
        for (auto kind :
             {txn::RuntimeKind::clobber, txn::RuntimeKind::undo}) {
            std::string name = std::string("fig9/") +
                               bench::systemName(kind) + "/" +
                               structure;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [structure, kind](benchmark::State& st) {
                    runFig9(st, structure, kind);
                })
                ->UseManualTime()
                ->Iterations(5)
                ->Unit(benchmark::kMicrosecond);
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    // A leading non-flag argument is the instant-restart JSON path
    // (google-benchmark flags all start with '-').
    const char* ttftOut = "BENCH_recovery.current.json";
    if (argc > 1 && argv[1][0] != '-') {
        ttftOut = argv[1];
        for (int i = 1; i + 1 < argc; i++)
            argv[i] = argv[i + 1];
        argc--;
    }
    if (!runTtftSweep(ttftOut))
        return 1;

    registerAll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
