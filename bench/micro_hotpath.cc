/**
 * @file
 * Hot-path microbenchmark for the NVM write-tracking layer.
 *
 * Unlike the figure benches this measures *wall-clock* cost of the
 * model layer itself (Pool::write / flush / fence) with real
 * std::threads, so regressions in the tracking data structures are
 * visible independently of the logical-thread timing model.
 *
 * Series:
 *   tracked_write        repeated 8-byte stores to a small per-thread
 *                        stripe of already-dirty lines (the per-thread
 *                        dirty-line cache's target workload)
 *   tracked_write_spread stores over a stripe much larger than any
 *                        per-thread cache, so every store probes the
 *                        shared line table
 *   flush_line           dirty-then-flush cycles over a 4 KiB batch of
 *                        lines per fence (commit-style write-back)
 *   fence                store + flush + fence round trips
 *
 * Scale knobs: CNVM_OPS (stores per thread), CNVM_MAXTHREADS,
 * CNVM_POOL_MB, CNVM_REPS. Output: argv[1] (default
 * BENCH_hotpath.current.json); `scripts/bench.sh hotpath` merges it
 * into BENCH_hotpath.json under a label.
 */
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "nvm/pool.h"

namespace {

using namespace cnvm;

std::unique_ptr<nvm::Pool>
makePool()
{
    nvm::PoolConfig cfg;
    cfg.size = bench::envSize("CNVM_POOL_MB", 256) << 20;
    cfg.maxThreads = 32;
    cfg.slotBytes = 64ULL << 10;
    return nvm::Pool::create(cfg);
}

/** Total ops/s of `fn(tid)` doing `opsPerThread` ops on each thread. */
template <typename Fn>
double
opsPerSec(unsigned threads, size_t opsPerThread, Fn&& fn)
{
    double secs = bench::timed(threads, fn);
    return static_cast<double>(opsPerThread) * threads /
           (secs > 0 ? secs : 1e-9);
}

/** Flush `n` (64-byte) lines given by `lines`, then fence. */
void
flushBatchAndFence(nvm::Pool& p, std::vector<uint64_t>& lines)
{
    p.flushLines(lines.data(), lines.size());
    p.fence();
}

double
benchTrackedWrite(unsigned threads, size_t ops, size_t stripeLines)
{
    auto pool = makePool();
    size_t stripeBytes = stripeLines * nvm::kCacheLine;
    uint64_t heap = pool->heapOff();
    return opsPerSec(threads, ops, [&](unsigned tid) {
        uint64_t base = heap + 4096 + tid * (stripeBytes + 4096);
        size_t words = stripeBytes / 8;
        size_t w = 0;
        for (size_t i = 0; i < ops; i++) {
            pool->writeAt(base + w * 8, &i, sizeof(i));
            if (++w == words)
                w = 0;
        }
    });
}

double
benchFlushLine(unsigned threads, size_t ops)
{
    auto pool = makePool();
    constexpr size_t kBatch = 64;  // 4 KiB of lines per fence
    uint64_t heap = pool->heapOff();
    size_t rounds = std::max<size_t>(1, ops / kBatch);
    return opsPerSec(threads, rounds * kBatch, [&](unsigned tid) {
        uint64_t base = heap + 4096 +
                        tid * (kBatch * nvm::kCacheLine + 4096);
        std::vector<uint64_t> lines(kBatch);
        for (size_t r = 0; r < rounds; r++) {
            for (size_t l = 0; l < kBatch; l++) {
                uint64_t off = base + l * nvm::kCacheLine;
                pool->writeAt(off, &r, sizeof(r));
                lines[l] = off / nvm::kCacheLine;
            }
            flushBatchAndFence(*pool, lines);
        }
    });
}

double
benchFence(unsigned threads, size_t ops)
{
    auto pool = makePool();
    uint64_t heap = pool->heapOff();
    size_t rounds = std::max<size_t>(1, ops / 16);
    return opsPerSec(threads, rounds, [&](unsigned tid) {
        uint64_t off = heap + 4096 + tid * 4096;
        for (size_t r = 0; r < rounds; r++) {
            pool->writeAt(off, &r, sizeof(r));
            pool->flush(pool->at(off), 8);
            pool->fence();
        }
    });
}

/** Total ops/s of one series at `threads`. */
double
runSeries(const std::string& op, unsigned threads, size_t ops)
{
    if (op == "tracked_write")
        return benchTrackedWrite(threads, ops, /*stripeLines=*/256);
    if (op == "tracked_write_spread")
        return benchTrackedWrite(threads, ops, /*stripeLines=*/65536);
    if (op == "flush_line")
        return benchFlushLine(threads, ops / 4);
    return benchFence(threads, ops / 4);
}

}  // namespace

int
main(int argc, char** argv)
{
    size_t ops = bench::totalOps(1000000);
    auto maxThreads =
        static_cast<unsigned>(bench::envSize("CNVM_MAXTHREADS", 4));
    std::vector<std::pair<std::string, unsigned>> cells;
    for (unsigned t : {1u, 2u, 4u}) {
        for (const char* op : {"tracked_write", "tracked_write_spread",
                               "flush_line", "fence"}) {
            if (t <= maxThreads)
                cells.emplace_back(op, t);
        }
    }

    bench::Report report("hotpath");
    report.param("ops", static_cast<double>(ops))
        .param("pool_mb",
               static_cast<double>(bench::envSize("CNVM_POOL_MB", 256)));
    report.sweep(cells.size(), [&](size_t i, bench::Row& row) {
        auto [op, t] = cells[i];
        row.dim("op", op).dim("threads", t).timing(
            "ops_per_sec", runSeries(op, t, ops));
    });
    return report.write(argc > 1 ? argv[1] : "BENCH_hotpath.current.json")
               ? 0
               : 1;
}
