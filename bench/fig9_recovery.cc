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
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace cnvm;

bench::Csv csv("fig9.csv", "fig9: system,structure,crash_point,"
                           "recover_total_us,rebuild_us");

double
usBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/**
 * Load records [0, ops) into `env`, then crash the insert of record
 * `id` at a random write and tear the pool. Returns the write the
 * crash was armed at.
 */
uint64_t
loadAndCrash(bench::KvEnv& env, size_t ops, size_t id, Xorshift& rng)
{
    env.preload(ops, 256);
    wl::Ycsb ycsb(wl::YcsbKind::load, id + 1, env.keyLen, 256);
    uint64_t trap = 1 + rng.nextUint(30);
    env.pool->armWriteTrap(trap);
    bool crashed = false;
    try {
        env.kv->insert(ycsb.keyOf(id), ycsb.valueOf(id));
    } catch (const nvm::CrashInjected&) {
        crashed = true;
    }
    env.pool->armWriteTrap(0);
    if (crashed)
        env.pool->simulateCrash(rng.next());
    return trap;
}

/**
 * One Fig. 9 case: each iteration loads the structure, crashes an
 * insert, and times recovery. Crash points continue across the
 * iterations of one run.
 */
auto
fig9Case(const std::string& structure, txn::RuntimeKind kind)
{
    return [structure, kind, rng = Xorshift(2026), totalUs = 0.0,
            rebuildUs = 0.0,
            runs = 0](benchmark::State& state) mutable {
        size_t ops = bench::totalOps(20000) / 2;
        bench::KvEnv env(kind, structure);
        uint64_t trap = loadAndCrash(env, ops, ops + 1, rng);

        // Recovery = allocator rebuild ("pool open") + log apply +
        // (clobber) re-execution. recover() performs all three; the
        // rebuild share is measured separately afterwards.
        auto t0 = std::chrono::steady_clock::now();
        env.runtime->recover();
        auto t1 = std::chrono::steady_clock::now();
        env.heap->rebuild();
        auto t2 = std::chrono::steady_clock::now();

        double recUs = usBetween(t0, t1);
        double rbUs = usBetween(t1, t2);
        totalUs += recUs;
        rebuildUs += rbUs;
        runs++;
        state.counters["recover_us"] = totalUs / runs;
        state.counters["pool_mgmt_us"] = rebuildUs / runs;
        csv.row("%s,%s,%lu,%.1f,%.1f", rt::kindName(kind),
                structure.c_str(), trap, recUs, rbUs);
        return recUs * 1e-6;
    };
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
    bench::KvEnv env(kind, "hashmap", rt::ClobberPolicy::refined,
                     poolMB << 20);
    loadAndCrash(env, ops, ops, rng);
    uint64_t rootOff = env.kv->rootOff();
    env.kv.reset();

    wl::Ycsb ycsb(wl::YcsbKind::load, ops + 2, env.keyLen, 256);
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
        row.dim("system", rt::kindName(c.kind))
            .dim("pool_mb", static_cast<double>(c.poolMB))
            .dim("mode", c.lazy ? "lazy" : "full");
        runTtftCell(c.kind, c.poolMB, c.lazy, ops, c.rng, row);
    });
    return report.write(path);
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
    if (!bench::listingOnly(argc, argv) && !runTtftSweep(ttftOut))
        return 1;

    for (const auto& structure : ds::benchmarkStructures()) {
        for (auto kind :
             {txn::RuntimeKind::clobber, txn::RuntimeKind::undo}) {
            bench::addCase(std::string("fig9/") + rt::kindName(kind) +
                               "/" + structure,
                           fig9Case(structure, kind))
                ->Iterations(5)
                ->Unit(benchmark::kMicrosecond);
        }
    }
    return bench::runFigure(argc, argv);
}
