/**
 * @file
 * Transaction hot-path microbenchmark for the runtime layer.
 *
 * micro_hotpath measures the NVM model (Pool/CacheSim); this bench sits
 * one layer up and measures what a txfunc actually pays per interposed
 * load/store in each protocol runtime: block-state bookkeeping probes,
 * log appends, and ordering fences. Wall-clock, real threads.
 *
 * Series (per protocol, per thread count):
 *   rmw8       read-modify-write of 8-byte words round-robin over a
 *              512-word working set, many ops per transaction. After
 *              the first pass every access hits already-read /
 *              already-written blocks — the set-probe hot path the
 *              block-state map and access-run memoization target.
 *   seqcpy     blind sequential 64-byte stores sweeping a 16 KiB
 *              region, several passes per transaction (b+tree
 *              shift-insert / value-copy pattern).
 *   logheavy   one read-modify-write per distinct word of a 4 KiB
 *              region per transaction: every store is a first-touch,
 *              so undo-family protocols pay one log append (+ fence
 *              where the protocol requires it) per op.
 *   e2e_hashmap end-to-end hashmap YCSB-load-style inserts through
 *              txn::run (fig6-style anchor, wall clock).
 *
 * rmw8 and logheavy bracket the log-append cost: rmw8's first pass
 * pays one append per word and the rest are suppressed (undo/clobber)
 * or logged again (atlas/redo); logheavy is the one-append-per-store
 * worst case.
 *
 * Every row, at every thread count, also carries fences, log entries,
 * log flushes and log bytes per transaction from the stats counters.
 *
 * Scale knobs: CNVM_OPS (ops per series per thread), CNVM_MAXTHREADS,
 * CNVM_POOL_MB, CNVM_REPS, CNVM_SMOKE. Output: argv[1] (default
 * BENCH_txpath.current.json); `scripts/bench.sh txpath` merges it into
 * BENCH_txpath.json under a label.
 */
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "structures/kv.h"
#include "txn/txrun.h"

namespace {

using namespace cnvm;

constexpr size_t kRmwWords = 512;
constexpr size_t kSeqBytes = 16ULL << 10;
constexpr size_t kSeqChunk = 64;
/**
 * Sweep passes per transaction. Pass 1 pays the per-protocol logging;
 * the rest exercise the suppressed-store path (already written /
 * already logged), which is what the block-state map speeds up.
 * Protocols that log every store unconditionally (atlas, redo) get no
 * suppression and would overflow the slot log area at 12 passes, so
 * they keep the lower count.
 */
constexpr size_t kSeqPasses = 12;
constexpr size_t kSeqPassesEveryStoreLogged = 4;
constexpr size_t kLogWords = 512;  // 4 KiB

/** Largest per-thread region any series touches. */
constexpr size_t kRegionBytes = kSeqBytes;

/**
 * Setup txfunc: allocate `count` regions of `bytes` and publish their
 * offsets as a root-anchored array the bench reads back directly.
 */
const txn::FuncId kTxpSetup = txn::registerTxFunc(
    "txp_setup", [](txn::Tx& tx, txn::ArgReader& a) {
        auto count = a.get<uint64_t>();
        auto bytes = a.get<uint64_t>();
        uint64_t dirOff = tx.pmallocOff(count * sizeof(uint64_t));
        for (uint64_t i = 0; i < count; i++) {
            uint64_t off = tx.pmallocOff(bytes);
            auto* slotp = static_cast<uint64_t*>(
                tx.pool().at(dirOff + i * sizeof(uint64_t)));
            tx.stBytes(slotp, &off, sizeof(off));
        }
        tx.pool().setRoot(dirOff);
    });

/** rmw8: args (regionOff, words, ops). */
const txn::FuncId kTxpRmw = txn::registerTxFunc(
    "txp_rmw", [](txn::Tx& tx, txn::ArgReader& a) {
        auto off = a.get<uint64_t>();
        auto words = a.get<uint64_t>();
        auto ops = a.get<uint64_t>();
        auto* base = static_cast<uint8_t*>(tx.pool().at(off));
        uint64_t w = 0;
        for (uint64_t i = 0; i < ops; i++) {
            uint64_t v;
            tx.ldBytes(&v, base + w * 8, 8);
            v += i;
            tx.stBytes(base + w * 8, &v, 8);
            if (++w == words)
                w = 0;
        }
    });

/** seqcpy: args (regionOff, bytes, passes). Blind 64-byte stores. */
const txn::FuncId kTxpSeq = txn::registerTxFunc(
    "txp_seq", [](txn::Tx& tx, txn::ArgReader& a) {
        auto off = a.get<uint64_t>();
        auto bytes = a.get<uint64_t>();
        auto passes = a.get<uint64_t>();
        auto* base = static_cast<uint8_t*>(tx.pool().at(off));
        uint8_t buf[kSeqChunk];
        std::memset(buf, 0x5a, sizeof(buf));
        for (uint64_t p = 0; p < passes; p++) {
            buf[0] = static_cast<uint8_t>(p);
            for (uint64_t o = 0; o + kSeqChunk <= bytes; o += kSeqChunk)
                tx.stBytes(base + o, buf, kSeqChunk);
        }
    });

/** logheavy: args (regionOff, words). One RMW per distinct word. */
const txn::FuncId kTxpLog = txn::registerTxFunc(
    "txp_log", [](txn::Tx& tx, txn::ArgReader& a) {
        auto off = a.get<uint64_t>();
        auto words = a.get<uint64_t>();
        auto* base = static_cast<uint8_t*>(tx.pool().at(off));
        for (uint64_t w = 0; w < words; w++) {
            uint64_t v;
            tx.ldBytes(&v, base + w * 8, 8);
            v ^= w;
            tx.stBytes(base + w * 8, &v, 8);
        }
    });

std::vector<uint64_t>
setupRegions(bench::Env& env, unsigned threads)
{
    auto eng = env.engine();
    txn::run(eng, kTxpSetup, static_cast<uint64_t>(threads),
             static_cast<uint64_t>(kRegionBytes));
    std::vector<uint64_t> offs(threads);
    const auto* dir =
        static_cast<const uint64_t*>(env.pool->at(env.pool->root()));
    for (unsigned t = 0; t < threads; t++)
        offs[t] = dir[t];
    return offs;
}

/** One cell of the matrix: a series under one protocol. */
struct Cell {
    txn::RuntimeKind kind;
    std::string op;
    unsigned threads;
    size_t ops;  ///< per thread (e2e_hashmap: inserts)
};

void
runMicroSeries(bench::Env& env, const Cell& c, bench::Row& row)
{
    auto offs = setupRegions(env, c.threads);

    size_t opsPerTx;
    std::function<void(txn::Engine&, uint64_t)> body;
    if (c.op == "rmw8") {
        // Pass 1 over the working set populates the per-block sets;
        // the remaining passes are the pure probe hot path. iDO is
        // capped lower: it emits a 160-byte boundary record per RMW,
        // and 8 passes would overflow the slot log area.
        size_t passes = c.kind == txn::RuntimeKind::ido ? 2 : 8;
        opsPerTx = std::min<size_t>(kRmwWords * passes, c.ops);
        body = [opsPerTx](txn::Engine& eng, uint64_t off) {
            txn::run(eng, kTxpRmw, off,
                     static_cast<uint64_t>(kRmwWords),
                     static_cast<uint64_t>(opsPerTx));
        };
    } else if (c.op == "seqcpy") {
        size_t passes = (c.kind == txn::RuntimeKind::atlas ||
                         c.kind == txn::RuntimeKind::redo)
                            ? kSeqPassesEveryStoreLogged
                            : kSeqPasses;
        opsPerTx = (kSeqBytes / kSeqChunk) * passes;
        body = [passes](txn::Engine& eng, uint64_t off) {
            txn::run(eng, kTxpSeq, off,
                     static_cast<uint64_t>(kSeqBytes),
                     static_cast<uint64_t>(passes));
        };
    } else {  // logheavy
        opsPerTx = kLogWords;
        body = [](txn::Engine& eng, uint64_t off) {
            txn::run(eng, kTxpLog, off,
                     static_cast<uint64_t>(kLogWords));
        };
    }

    size_t txPerThread = std::max<size_t>(1, c.ops / opsPerTx);
    auto before = stats::aggregate();
    double secs = bench::timedTxLoop(
        env, c.threads, txPerThread,
        [&](txn::Engine& eng, unsigned t) { body(eng, offs[t]); });
    // Joined workers retire their counters into stats::aggregate(),
    // so the delta covers every thread's transactions.
    row.timing("ops_per_sec", static_cast<double>(txPerThread) *
                                  opsPerTx * c.threads /
                                  (secs > 0 ? secs : 1e-9))
        .persistence(stats::aggregate() - before);
}

void
runE2eHashmap(bench::Env& env, size_t inserts, bench::Row& row)
{
    auto eng = env.engine();
    auto kv = ds::makeKv("hashmap", eng);
    std::string val(64, 'v');
    char key[32];
    auto before = stats::aggregate();
    double secs = bench::timed(1, [&](unsigned) {
        for (size_t i = 0; i < inserts; i++) {
            std::snprintf(key, sizeof(key), "user%010zu", i);
            kv->insert(key, val);
        }
    });
    row.timing("ops_per_sec",
               static_cast<double>(inserts) / (secs > 0 ? secs : 1e-9))
        .persistence(stats::aggregate() - before);
}

}  // namespace

int
main(int argc, char** argv)
{
    size_t ops = bench::totalOps(800000);
    auto maxThreads =
        static_cast<unsigned>(bench::envSize("CNVM_MAXTHREADS", 2));
    std::vector<unsigned> threadCounts{1u};
    if (maxThreads >= 2)
        threadCounts.push_back(2u);

    std::vector<Cell> cells;
    for (auto kind :
         {txn::RuntimeKind::clobber, txn::RuntimeKind::undo,
          txn::RuntimeKind::redo, txn::RuntimeKind::atlas,
          txn::RuntimeKind::ido}) {
        for (unsigned t : threadCounts) {
            cells.push_back({kind, "rmw8", t, ops});
            cells.push_back({kind, "seqcpy", t, ops});
            cells.push_back({kind, "logheavy", t, ops / 4});
        }
        cells.push_back({kind, "e2e_hashmap", 1,
                         std::min<size_t>(ops / 20, 50000)});
    }

    bench::Report report("txpath");
    report.param("ops", static_cast<double>(ops));
    report.sweep(cells.size(), [&](size_t i, bench::Row& row) {
        const Cell& c = cells[i];
        row.dim("op", c.op)
            .dim("system", bench::systemName(c.kind))
            .dim("threads", c.threads);
        bench::Env env(c.kind);
        if (c.op == "e2e_hashmap")
            runE2eHashmap(env, c.ops, row);
        else
            runMicroSeries(env, c, row);
    });
    return report.write(argc > 1 ? argv[1] : "BENCH_txpath.current.json")
               ? 0
               : 1;
}
