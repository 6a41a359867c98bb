/**
 * @file
 * Tests of the concurrency/timing simulator: logical clocks, the
 * persistence-stall model, discrete-event lock contention, and the
 * executor's scaling behaviour (what makes Figures 6/10 meaningful on
 * a single-core host).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/executor.h"
#include "sim/lock.h"
#include "stats/simtime.h"

namespace cnvm::sim {
namespace {

TEST(PersistClock, FlushesOverlapFencesDrain)
{
    stats::PersistParams p;
    p.flushNs = 100;
    p.fenceNs = 10;
    p.writeNsPerByte = 0;
    stats::PersistClock clock(p);

    // Three flushes issued back to back overlap: one fence waits for
    // the last completion only.
    clock.onFlush(0);
    clock.onFlush(1);
    clock.onFlush(2);
    uint64_t stall = clock.onFence(5);
    EXPECT_EQ(stall, (2 + 100 - 5) + 10u);

    // A fence long after the flush completes costs only the fence.
    clock.onFlush(1000);
    EXPECT_EQ(clock.onFence(2000), 10u);
}

TEST(PersistClock, WriteBandwidthTermScalesWithBytes)
{
    stats::PersistParams p;
    p.flushNs = 0;
    p.fenceNs = 0;
    p.writeNsPerByte = 2.0;
    stats::PersistClock clock(p);
    clock.onFlush(0, 64);
    EXPECT_EQ(clock.onFence(0), 128u);
}

TEST(ThreadCtx, WaitUntilNeverGoesBackwards)
{
    ThreadCtx c(0);
    c.advance(100);
    c.waitUntil(50);
    EXPECT_EQ(c.clockNs(), 100u);
    c.waitUntil(250);
    EXPECT_EQ(c.clockNs(), 250u);
}

TEST(SimMutex, SerializesLogicalTime)
{
    // Two logical threads each spend 1000ns inside the same mutex:
    // total simulated time must be ~2000ns, not ~1000ns.
    Executor exec(2);
    SimMutex mu;
    exec.run(1, [&](ThreadCtx& ctx, size_t) {
        mu.lock();
        ctx.advance(1000);
        mu.unlock();
    });
    EXPECT_GE(exec.elapsedNs(), 2000u);
}

TEST(SimSharedMutex, ReadersOverlapWritersSerialize)
{
    // Readers: 8 threads of 1000ns critical sections overlap. Each
    // thread's clock is read as it leaves: in the first round it holds
    // only what the lock model added, not the measured compute the
    // executor adds after the op returns (scaled wall time, which one
    // slow op under a sanitizer can push past any bound).
    {
        Executor exec(8);
        SimSharedMutex mu;
        uint64_t latestExit = 0;
        exec.run(1, [&](ThreadCtx& ctx, size_t) {
            mu.lock_shared();
            ctx.advance(1000);
            mu.unlock_shared();
            latestExit = std::max(latestExit, ctx.clockNs());
        });
        EXPECT_LT(latestExit, 4000u);
    }
    // Writers: the same pattern exclusive must serialize.
    {
        Executor exec(8);
        SimSharedMutex mu;
        exec.run(1, [&](ThreadCtx& ctx, size_t) {
            mu.lock();
            ctx.advance(1000);
            mu.unlock();
        });
        EXPECT_GE(exec.elapsedNs(), 8000u);
    }
}

TEST(SimSharedMutex, WriterWaitsForReaders)
{
    Executor exec(2);
    SimSharedMutex mu;
    exec.run(1, [&](ThreadCtx& ctx, size_t) {
        if (ctx.tid() == 0) {
            mu.lock_shared();
            ctx.advance(5000);
            mu.unlock_shared();
        } else {
            mu.lock();
            ctx.advance(100);
            mu.unlock();
        }
    });
    // The writer must land after the reader's 5000ns window.
    EXPECT_GE(exec.ctx(1).clockNs(), 5000u);
}

TEST(LockShard, DistinctOffsetsRarelyCollide)
{
    LockShard shard(1024);
    // Sharded locks must spread: consecutive node offsets should not
    // all map to one lock.
    auto* first = &shard.forOffset(64);
    int same = 0;
    for (uint64_t off = 64; off < 64 + 64 * 100; off += 64) {
        if (&shard.forOffset(off) == first)
            same++;
    }
    EXPECT_LT(same, 10);
}

TEST(Executor, PerfectScalingWithoutSharing)
{
    // Independent threads doing fixed logical work: simulated elapsed
    // time stays flat as threads are added (per-thread ops constant).
    uint64_t elapsed1;
    {
        Executor exec(1);
        exec.run(4, [&](ThreadCtx& ctx, size_t) {
            ctx.advance(1000);
        });
        elapsed1 = exec.elapsedNs();
    }
    Executor exec(8);
    exec.run(4, [&](ThreadCtx& ctx, size_t) { ctx.advance(1000); });
    // 8 threads x same per-thread work: elapsed within noise of the
    // single-thread run (all clocks advance in parallel).
    EXPECT_LT(exec.elapsedNs(), elapsed1 * 2);
}

TEST(Executor, GlobalLockFlattensScaling)
{
    auto throughput = [](unsigned threads) {
        Executor exec(threads);
        SimMutex mu;
        size_t perThread = 64;
        double secs = exec.run(perThread,
                               [&](ThreadCtx& ctx, size_t) {
                                   mu.lock();
                                   ctx.advance(1000);
                                   mu.unlock();
                               });
        return static_cast<double>(perThread * threads) / secs;
    };
    double t1 = throughput(1);
    double t8 = throughput(8);
    // With every op inside one global lock, 8 threads must not
    // meaningfully beat 1 thread.
    EXPECT_LT(t8, t1 * 1.6);
}

TEST(Executor, ResetClocksStartsFresh)
{
    Executor exec(2);
    exec.run(1, [](ThreadCtx& ctx, size_t) { ctx.advance(500); });
    EXPECT_GT(exec.elapsedNs(), 0u);
    exec.resetClocks();
    EXPECT_EQ(exec.elapsedNs(), 0u);
}

TEST(Scope, InstallsAndClearsCurrentContext)
{
    EXPECT_EQ(cur(), nullptr);
    {
        ThreadCtx ctx(3);
        Scope scope(&ctx);
        EXPECT_EQ(cur(), &ctx);
        EXPECT_EQ(cur()->tid(), 3u);
    }
    EXPECT_EQ(cur(), nullptr);
}

}  // namespace
}  // namespace cnvm::sim
