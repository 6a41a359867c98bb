/**
 * @file
 * Shared infrastructure for the benchmarks.
 *
 * Every figure bench regenerates one figure of the paper's evaluation
 * (Section 5) through one driver: its `main` registers one case per
 * cell with addCase() and hands over to runFigure(). A case runs its
 * workload through the logical-thread executor (KvEnv for the
 * data-structure figures), reports *simulated* time to
 * google-benchmark via manual timing, and writes one artifact-style
 * row through Csv to figN.csv in the working directory (the original
 * artifact's `run_all.sh` emits the same `system,structure,threads,
 * run,valsize,throughput` rows).
 *
 * The wall-clock suites (micro_hotpath, micro_txpath, micro_kvserver
 * and fig9_recovery's restart sweep) write one JSON report each
 * through `Report`, in the schema scripts/bench.sh merges into
 * BENCH_<suite>.json and scripts/summarize_results.py reads.
 *
 * Scale knobs (environment):
 *   CNVM_OPS        total operations per configuration (default varies)
 *   CNVM_MAXTHREADS cap for the thread sweep (default 24)
 *   CNVM_POOL_MB    pool size in MiB (default 512)
 *   CNVM_REPS       wall-clock suites: reps per cell (default 3)
 *   CNVM_SMOKE      =1: CI smoke mode — tiny op counts, two threads,
 *                   64 MiB pool, one rep. Explicit knobs above still
 *                   win.
 */
#ifndef CNVM_BENCH_COMMON_H
#define CNVM_BENCH_COMMON_H

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/pm_allocator.h"
#include "nvm/pool.h"
#include "runtimes/factory.h"
#include "sim/executor.h"
#include "stats/counters.h"
#include "structures/kv.h"
#include "txn/engine.h"
#include "workloads/ycsb.h"

namespace cnvm::bench {

inline size_t
envSize(const char* name, size_t dflt)
{
    const char* v = std::getenv(name);
    return v != nullptr ? std::strtoull(v, nullptr, 10) : dflt;
}

/** CI smoke mode: just prove the bench binaries run end to end. */
inline bool
smokeMode()
{
    const char* v = std::getenv("CNVM_SMOKE");
    return v != nullptr && v[0] == '1';
}

/**
 * Pool + heap + runtime bundle for one benchmark configuration.
 * The default 512 MiB pool can be shrunk via CNVM_POOL_MB so benches
 * run on small CI machines; an explicit poolBytes wins over both.
 */
class Env {
 public:
    explicit Env(txn::RuntimeKind kind,
                 rt::ClobberPolicy policy = rt::ClobberPolicy::refined,
                 size_t poolBytes = 0)
    {
        nvm::PoolConfig cfg;
        cfg.size = poolBytes != 0
                       ? poolBytes
                       : envSize("CNVM_POOL_MB", smokeMode() ? 64 : 512)
                             << 20;
        cfg.maxThreads = 32;
        cfg.slotBytes = 256ULL << 10;
        pool = nvm::Pool::create(cfg);
        nvm::Pool::setCurrent(pool.get());
        heap = std::make_unique<alloc::PmAllocator>(*pool);
        runtime = rt::makeRuntime(kind, *pool, *heap, policy);
    }

    ~Env()
    {
        if (nvm::Pool::current() == pool.get())
            nvm::Pool::setCurrent(nullptr);
    }

    txn::Engine engine() { return txn::Engine(*runtime); }

    std::unique_ptr<nvm::Pool> pool;
    std::unique_ptr<alloc::PmAllocator> heap;
    std::unique_ptr<txn::Runtime> runtime;
};

/** Total operations per configuration. */
inline size_t
totalOps(size_t dflt)
{
    if (smokeMode())
        dflt = std::min<size_t>(dflt, 2000);
    return envSize("CNVM_OPS", dflt);
}

/** Thread counts for scaling sweeps (paper: 1 to 24). */
inline std::vector<unsigned>
threadSweep()
{
    auto cap = static_cast<unsigned>(
        envSize("CNVM_MAXTHREADS", smokeMode() ? 2 : 24));
    std::vector<unsigned> out;
    for (unsigned t : {1u, 2u, 4u, 8u, 16u, 24u}) {
        if (t <= cap)
            out.push_back(t);
    }
    return out;
}

/** Key bytes of the data-structure runs: 32 for the B+Tree, else 8. */
inline size_t
keyLenFor(const std::string& structure)
{
    return structure == "bptree" ? 32 : 8;
}

/**
 * An Env with its engine and one fresh data structure, driven by YCSB
 * records: record `id` has a `keyLen`-byte key and a deterministic
 * value (Ycsb::keyOf / valueOf).
 */
class KvEnv : public Env {
 public:
    KvEnv(txn::RuntimeKind kind, const std::string& structure,
          rt::ClobberPolicy policy = rt::ClobberPolicy::refined,
          size_t poolBytes = 0)
        : Env(kind, policy, poolBytes),
          eng(engine()),
          kv(ds::makeKv(structure, eng)),
          keyLen(keyLenFor(structure))
    {
    }

    /** Insert records [0, n) with `valLen`-byte values, untimed. */
    void
    preload(size_t n, size_t valLen)
    {
        wl::Ycsb ycsb(wl::YcsbKind::load, n, keyLen, valLen);
        for (size_t i = 0; i < n; i++)
            kv->insert(ycsb.keyOf(i), ycsb.valueOf(i));
    }

    /**
     * YCSB-Load on `threads` logical threads: thread t inserts records
     * t·perThread + i for i < perThread, with the paper's 256-byte
     * values. Returns the simulated seconds.
     */
    double
    inserts(unsigned threads, size_t perThread)
    {
        wl::Ycsb ycsb(wl::YcsbKind::load, threads * perThread, keyLen,
                      256);
        return sim::Executor(threads).run(
            perThread, [&](sim::ThreadCtx& ctx, size_t i) {
                uint64_t id = ctx.tid() * perThread + i;
                kv->insert(ycsb.keyOf(id), ycsb.valueOf(id));
            });
    }

    /**
     * Logical thread t serves `perThread` requests of `streams[t]`: a
     * read looks its key up, any other request inserts. Returns the
     * simulated seconds.
     */
    double
    mix(std::vector<wl::Ycsb>& streams, size_t perThread)
    {
        ds::LookupResult sink;
        return sim::Executor(static_cast<unsigned>(streams.size()))
            .run(perThread, [&](sim::ThreadCtx& ctx, size_t) {
                auto req = streams[ctx.tid()].next();
                if (req.op == wl::YcsbOp::read)
                    kv->lookup(req.key, &sink);
                else
                    kv->insert(req.key, req.value);
            });
    }

    txn::Engine eng;
    std::unique_ptr<ds::KvStructure> kv;
    size_t keyLen;
};

/**
 * Run `fn` inside one counter window: zero every thread's counters,
 * run it, and return what it counted.
 */
template <typename Fn>
stats::Snapshot
counted(Fn&& fn)
{
    stats::resetAll();
    fn();
    return stats::aggregate();
}

/**
 * One figure's artifact-style rows, in `path` under the working
 * directory. The first row truncates the file and writes the
 * `# header` line, so a run whose filter selects no case writes no
 * file. A file that cannot be opened ends the bench with exit
 * status 1.
 */
class Csv {
 public:
    Csv(std::string path, std::string header)
        : path_(std::move(path)), header_(std::move(header))
    {
    }

    Csv(const Csv&) = delete;
    Csv& operator=(const Csv&) = delete;

    ~Csv()
    {
        if (f_ != nullptr)
            std::fclose(f_);
    }

    template <typename... Args>
    void
    row(const char* fmt, Args... args)
    {
        if (f_ == nullptr) {
            f_ = std::fopen(path_.c_str(), "w");
            if (f_ == nullptr) {
                std::fprintf(stderr, "cannot write %s\n", path_.c_str());
                std::exit(1);
            }
            std::fprintf(f_, "# %s\n", header_.c_str());
        }
        std::fprintf(f_, fmt, args...);
        std::fprintf(f_, "\n");
        std::fflush(f_);
    }

 private:
    std::string path_;
    std::string header_;
    std::FILE* f_ = nullptr;
};

/**
 * Register the figure case `name`: manual time, one iteration,
 * reported in milliseconds (the returned handle adds arguments or
 * overrides these). Each iteration calls `run(state)`, which measures
 * the cell, writes its row and returns the seconds the row stands
 * for. Every run of the case starts from a fresh copy of `run`, so
 * state it carries across iterations lives for that run only.
 */
template <typename Fn>
benchmark::internal::Benchmark*
addCase(const std::string& name, Fn run)
{
    return benchmark::RegisterBenchmark(
               name.c_str(),
               [run](benchmark::State& state) {
                   Fn fresh = run;
                   for (auto _ : state)
                       state.SetIterationTime(fresh(state));
               })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
}

/**
 * Does `argv` ask google-benchmark only to list the cases
 * (`--benchmark_list_tests`, with no value or a true one)? Such a run
 * measures nothing, so it runs no footer and writes no file.
 */
inline bool
listingOnly(int argc, char** argv)
{
    const std::string flag = "--benchmark_list_tests";
    bool listing = false;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == flag) {
            listing = true;
        } else if (arg.rfind(flag + "=", 0) == 0) {
            std::string v = arg.substr(flag.size() + 1);
            listing = !(v == "0" || v == "false" || v == "f" ||
                        v == "no" || v == "n" || v == "off");
        }
    }
    return listing;
}

/**
 * The body of every figure bench's `main`, once its cases are
 * registered: run the cases the flags select, then `after` (a
 * figure's footer), whatever the filter selected, unless the run only
 * lists the cases.
 */
inline int
runFigure(int argc, char** argv, const std::function<void()>& after = {})
{
    bool listing = listingOnly(argc, argv);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    if (after && !listing)
        after();
    benchmark::Shutdown();
    return 0;
}

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Run `fn(tid)` on `threads` OS threads (inline when there is one)
 * and return the wall seconds until the last one returns.
 */
template <typename Fn>
double
timed(unsigned threads, Fn&& fn)
{
    auto t0 = Clock::now();
    if (threads == 1) {
        fn(0u);
    } else {
        std::vector<std::thread> ts;
        ts.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            ts.emplace_back([&fn, t] { fn(t); });
        for (auto& th : ts)
            th.join();
    }
    return secondsSince(t0);
}

/**
 * Run `txBody(eng, tid)` `txPerThread` times on each of `threads` OS
 * threads, each bound to its own runtime slot. Returns wall seconds.
 */
template <typename Fn>
double
timedTxLoop(Env& env, unsigned threads, size_t txPerThread, Fn&& txBody)
{
    double secs = timed(threads, [&](unsigned t) {
        txn::setThreadTid(t);
        auto eng = env.engine();
        for (size_t i = 0; i < txPerThread; i++)
            txBody(eng, t);
    });
    txn::setThreadTid(0);
    return secs;
}

/** A JSON number; null when the value is not finite. */
inline std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::isfinite(v) ? buf : "null";
}

/**
 * One row of a Report: its dimensions, then metrics that collect one
 * sample per rep. A timing is written with its spread over the reps,
 * `{"stat": "median", "n": reps, "value": …, "min": …, "max": …}`;
 * a count (exact per run, like fences per transaction) as its median.
 * String dimensions are identifiers and are written unescaped.
 */
class Row {
 public:
    Row&
    dim(const std::string& key, const std::string& v)
    {
        field(key, kDim).text = "\"" + v + "\"";
        return *this;
    }

    Row&
    dim(const std::string& key, double v)
    {
        field(key, kDim).text = jsonNumber(v);
        return *this;
    }

    Row&
    timing(const std::string& key, double v)
    {
        field(key, kTiming).samples.push_back(v);
        return *this;
    }

    Row&
    count(const std::string& key, double v)
    {
        field(key, kCount).samples.push_back(v);
        return *this;
    }

    /**
     * The paper's persistence columns (Figs. 7–8) per committed
     * transaction, from a counter delta over the measured window:
     * fences, log entries, log flushes and log bytes. A window in
     * which nothing committed adds no columns rather than zeros.
     */
    Row&
    persistence(const stats::Snapshot& d)
    {
        using stats::Counter;
        double txs = static_cast<double>(d[Counter::txCommits]);
        if (txs == 0)
            return *this;
        // clobber entries are a subset of undoEntries; don't double
        // count.
        double entries = static_cast<double>(
            d[Counter::undoEntries] + d[Counter::redoEntries] +
            d[Counter::idoEntries] + d[Counter::lockLogEntries]);
        count("fences_per_tx", d[Counter::fences] / txs);
        count("log_entries_per_tx", entries / txs);
        count("log_flushes_per_tx", d[Counter::logFlushes] / txs);
        return count("log_bytes_per_tx", d[Counter::logBytes] / txs);
    }

    /** `{"dims": {…}, "metrics": {…}}` on one line. */
    std::string
    json() const
    {
        std::string dims, metrics;
        for (const Field& f : fields_) {
            std::string& out = f.kind == kDim ? dims : metrics;
            out += (out.empty() ? "\"" : ", \"") + f.key + "\": ";
            if (f.kind == kDim) {
                out += f.text;
                continue;
            }
            std::vector<double> s = f.samples;
            std::sort(s.begin(), s.end());
            size_t n = s.size();
            std::string median =
                jsonNumber((s[(n - 1) / 2] + s[n / 2]) / 2);
            out += f.kind == kCount
                       ? median
                       : "{\"stat\": \"median\", \"n\": " +
                             std::to_string(n) + ", \"value\": " +
                             median + ", \"min\": " +
                             jsonNumber(s.front()) + ", \"max\": " +
                             jsonNumber(s.back()) + "}";
        }
        return "{\"dims\": {" + dims + "}, \"metrics\": {" + metrics +
               "}}";
    }

 private:
    enum Kind { kDim, kTiming, kCount };
    struct Field {
        std::string key;
        Kind kind;
        std::string text;             ///< a dimension's JSON value
        std::vector<double> samples;  ///< a metric's, one per rep
    };

    Field&
    field(const std::string& key, Kind kind)
    {
        for (Field& f : fields_) {
            if (f.key == key)
                return f;
        }
        return fields_.emplace_back(Field{key, kind, {}, {}});
    }

    std::vector<Field> fields_;
};

/**
 * The one JSON writer of the wall-clock suites. A report records the
 * suite, its parameters, the reps per cell (CNVM_REPS) and the host's
 * core count; scripts/bench.sh fills in the git sha (null here) when
 * it merges the report into BENCH_<suite>.json under a label.
 */
class Report {
 public:
    explicit Report(std::string suite)
        : suite_(std::move(suite)),
          reps_(std::max<size_t>(
              1, envSize("CNVM_REPS", smokeMode() ? 1 : 3)))
    {
    }

    Report&
    param(const std::string& key, double v)
    {
        params_ += (params_.empty() ? "\"" : ", \"") + key +
                   "\": " + jsonNumber(v);
        return *this;
    }

    /**
     * Run `cell(i, row)` for every cell of the matrix, CNVM_REPS
     * times. Reps interleave across the matrix (rep 1 of every cell,
     * then rep 2, …): co-tenancy slowdowns on a shared host last
     * seconds, and back-to-back reps would let one slow phase swallow
     * every rep of one cell.
     */
    template <typename Fn>
    void
    sweep(size_t cells, Fn&& cell)
    {
        rows_.resize(cells);
        for (size_t rep = 0; rep < reps_; rep++) {
            for (size_t i = 0; i < cells; i++)
                cell(i, rows_[i]);
        }
    }

    /**
     * Write the report to `path` and echo it to stdout. Returns false,
     * after saying why, when the file cannot be written; the bench
     * then exits non-zero.
     */
    bool
    write(const std::string& path) const
    {
        std::string out =
            "{\"suite\": \"" + suite_ + "\", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"reps\": " + std::to_string(reps_) +
            ", \"sha\": null,\n \"params\": {" + params_ +
            "},\n \"rows\": [";
        for (size_t i = 0; i < rows_.size(); i++)
            out += (i > 0 ? ",\n  " : "\n  ") + rows_[i].json();
        out += "\n]}\n";

        std::FILE* f = std::fopen(path.c_str(), "w");
        bool ok = f != nullptr &&
                  std::fwrite(out.data(), 1, out.size(), f) == out.size();
        if (f != nullptr && std::fclose(f) != 0)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        std::fputs(out.c_str(), stdout);
        return true;
    }

 private:
    std::string suite_;
    size_t reps_;
    std::string params_;
    std::vector<Row> rows_;
};

}  // namespace cnvm::bench

#endif  // CNVM_BENCH_COMMON_H
