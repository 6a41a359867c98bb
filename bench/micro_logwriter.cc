/**
 * @file
 * Log-writer shootout: writer × protocol × op × threads.
 *
 * Same harness shape as micro_txpath, but the swept axis is the
 * pluggable log-append engine (baseline / zero / zerocached) selected
 * per run via rt::selectLogWriter — not the process-global
 * CNVM_LOG_WRITER knob, so one invocation produces the whole ablation
 * matrix. Two ops bracket the log-append cost:
 *
 *   rmw8       read-modify-write over a 512-word set, 8 passes per
 *              transaction: pass 1 pays one append per word, the rest
 *              are suppressed (undo/clobber) or logged again
 *              (atlas/redo).
 *   logheavy   one RMW per distinct word of a 4 KiB region per
 *              transaction: every store is a first-touch append. This
 *              is the O(entries)-fences worst case the zero-fence
 *              writers target.
 *
 * At every thread count the rows carry fences/tx, entries/tx and
 * flushes/tx from the stats counters — the fence-elision and
 * flush-coalescing evidence (zerocached: ~4 entries per coalesced
 * flush at 24-byte headers + 8-byte payloads in 64-byte lines).
 *
 * Each series runs CNVM_REPS times (default 3) and reports the best
 * rep. The reps are interleaved across the whole matrix (rep 1 of
 * every series, then rep 2, ...), not run back-to-back: co-tenancy
 * slowdowns on a shared box are autocorrelated over seconds, and
 * back-to-back reps let one slow phase swallow every rep of one cell
 * and show up as a fake 20-30% regression there.
 *
 * Scale knobs: CNVM_OPS, CNVM_MAXTHREADS, CNVM_POOL_MB, CNVM_REPS,
 * CNVM_SMOKE.
 * Output: argv[1] (default BENCH_logwriter.current.json);
 * scripts/bench_logwriter.sh merges it into BENCH_logwriter.json.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runtimes/log_writer.h"
#include "txn/txrun.h"

namespace {

using namespace cnvm;
using Clock = std::chrono::steady_clock;

constexpr size_t kRmwWords = 512;
constexpr size_t kLogWords = 512;  // 4 KiB
constexpr size_t kRegionBytes = kLogWords * 8;

struct Row {
    std::string writer;
    std::string op;
    std::string system;
    unsigned threads;
    double opsPerSec = 0;
    double fencesPerTx = 0;
    double entriesPerTx = 0;
    double flushesPerTx = 0;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

const txn::FuncId kLwSetup = txn::registerTxFunc(
    "lw_setup", [](txn::Tx& tx, txn::ArgReader& a) {
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
const txn::FuncId kLwRmw = txn::registerTxFunc(
    "lw_rmw", [](txn::Tx& tx, txn::ArgReader& a) {
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

/** logheavy: args (regionOff, words). One RMW per distinct word. */
const txn::FuncId kLwLog = txn::registerTxFunc(
    "lw_log", [](txn::Tx& tx, txn::ArgReader& a) {
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
    txn::run(eng, kLwSetup, static_cast<uint64_t>(threads),
             static_cast<uint64_t>(kRegionBytes));
    std::vector<uint64_t> offs(threads);
    const auto* dir =
        static_cast<const uint64_t*>(env.pool->at(env.pool->root()));
    for (unsigned t = 0; t < threads; t++)
        offs[t] = dir[t];
    return offs;
}

template <typename Fn>
double
timedTxLoop(bench::Env& env, const std::vector<uint64_t>& offs,
            unsigned threads, size_t txPerThread, Fn&& txBody)
{
    auto t0 = Clock::now();
    auto worker = [&](unsigned t) {
        txn::setThreadTid(t);
        auto eng = env.engine();
        for (size_t i = 0; i < txPerThread; i++)
            txBody(eng, offs[t]);
    };
    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> ts;
        ts.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            ts.emplace_back(worker, t);
        for (auto& th : ts)
            th.join();
        txn::setThreadTid(0);
    }
    return secondsSince(t0);
}

uint64_t
protoEntries(const stats::Snapshot& d)
{
    // clobber entries are a subset of undoEntries; don't double count.
    return d[stats::Counter::undoEntries] +
           d[stats::Counter::redoEntries] +
           d[stats::Counter::idoEntries] +
           d[stats::Counter::lockLogEntries];
}

Row
runSeries(txn::RuntimeKind kind, rt::LogWriterKind writer,
          const std::string& op, unsigned threads, size_t opsPerThread)
{
    bench::Env env(kind);
    // The writer is swapped on the live runtime (no slot is mid-tx
    // yet), so the whole matrix runs in one process regardless of the
    // CNVM_LOG_WRITER ambient default.
    rt::selectLogWriter(*env.runtime, writer);
    auto offs = setupRegions(env, threads);

    size_t opsPerTx;
    std::function<void(txn::Engine&, uint64_t)> body;
    if (op == "rmw8") {
        size_t passes = kind == txn::RuntimeKind::ido ? 2 : 8;
        opsPerTx = std::min<size_t>(kRmwWords * passes, opsPerThread);
        body = [opsPerTx](txn::Engine& eng, uint64_t off) {
            txn::run(eng, kLwRmw, off,
                     static_cast<uint64_t>(kRmwWords),
                     static_cast<uint64_t>(opsPerTx));
        };
    } else {  // logheavy
        opsPerTx = kLogWords;
        body = [](txn::Engine& eng, uint64_t off) {
            txn::run(eng, kLwLog, off,
                     static_cast<uint64_t>(kLogWords));
        };
    }

    size_t txPerThread = std::max<size_t>(1, opsPerThread / opsPerTx);
    stats::resetAll();
    auto before = stats::aggregate();
    double secs = timedTxLoop(env, offs, threads, txPerThread, body);
    auto delta = stats::aggregate() - before;

    Row r;
    r.writer = rt::logWriterName(writer);
    r.op = op;
    r.system = env.runtime->name();
    r.threads = threads;
    r.opsPerSec = static_cast<double>(txPerThread) * opsPerTx *
                  threads / (secs > 0 ? secs : 1e-9);
    // Joined workers retire their counters into stats::aggregate(),
    // so the delta covers every thread's transactions.
    double txs = static_cast<double>(txPerThread) * threads;
    r.fencesPerTx = delta[stats::Counter::fences] / txs;
    r.entriesPerTx = static_cast<double>(protoEntries(delta)) / txs;
    r.flushesPerTx = delta[stats::Counter::logFlushes] / txs;
    return r;
}

}  // namespace

int
main(int argc, char** argv)
{
    size_t ops = bench::totalOps(400000);
    auto maxThreads =
        static_cast<unsigned>(bench::envSize("CNVM_MAXTHREADS", 2));
    std::vector<unsigned> threadCounts{1u};
    if (maxThreads >= 2)
        threadCounts.push_back(2u);

    const std::vector<txn::RuntimeKind> kinds = {
        txn::RuntimeKind::clobber, txn::RuntimeKind::undo,
        txn::RuntimeKind::redo, txn::RuntimeKind::atlas,
        txn::RuntimeKind::ido};
    const std::vector<rt::LogWriterKind> writers = {
        rt::LogWriterKind::baseline, rt::LogWriterKind::zero,
        rt::LogWriterKind::zerocached};

    struct Cell {
        txn::RuntimeKind kind;
        rt::LogWriterKind writer;
        const char* op;
        unsigned threads;
        size_t ops;
    };
    std::vector<Cell> cells;
    for (auto writer : writers) {
        for (auto kind : kinds) {
            for (unsigned t : threadCounts) {
                cells.push_back({kind, writer, "rmw8", t, ops});
                cells.push_back({kind, writer, "logheavy", t, ops / 4});
            }
        }
    }

    auto reps = bench::envSize("CNVM_REPS", 3);
    std::vector<Row> rows(cells.size());
    for (size_t rep = 0; rep < reps; rep++) {
        for (size_t i = 0; i < cells.size(); i++) {
            const Cell& c = cells[i];
            Row r = runSeries(c.kind, c.writer, c.op, c.threads, c.ops);
            if (rep == 0 || r.opsPerSec > rows[i].opsPerSec)
                rows[i] = r;
        }
    }

    const char* path =
        argc > 1 ? argv[1] : "BENCH_logwriter.current.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(f, "{\n  \"ops_per_thread\": %zu,\n", ops);
    std::fprintf(f, "  \"series\": [\n");
    for (size_t i = 0; i < rows.size(); i++) {
        const Row& r = rows[i];
        std::fprintf(
            f,
            "    {\"writer\": \"%s\", \"op\": \"%s\", \"system\": "
            "\"%s\", \"threads\": %u, \"ops_per_sec\": %.0f, "
            "\"fences_per_tx\": %.2f, \"log_entries_per_tx\": %.2f, "
            "\"log_flushes_per_tx\": %.2f}%s\n",
            r.writer.c_str(), r.op.c_str(), r.system.c_str(),
            r.threads, r.opsPerSec, r.fencesPerTx, r.entriesPerTx,
            r.flushesPerTx, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    for (const auto& r : rows) {
        std::printf("%-10s %-9s %-10s threads=%u  %8.2f Mops/s  "
                    "fences/tx=%.1f entries/tx=%.1f flushes/tx=%.1f\n",
                    r.writer.c_str(), r.op.c_str(), r.system.c_str(),
                    r.threads, r.opsPerSec / 1e6, r.fencesPerTx,
                    r.entriesPerTx, r.flushesPerTx);
    }
    return 0;
}
