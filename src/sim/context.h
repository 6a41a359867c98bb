/**
 * @file
 * Logical-thread context for the concurrency/timing simulator.
 *
 * The host container has a single CPU, so OS threads cannot demonstrate
 * the paper's scaling results (Figures 6 and 10). Instead, benchmarks run
 * N *logical* threads multiplexed on one OS thread:
 *
 *  - each logical thread owns a clock (nanoseconds of simulated time);
 *  - executing an operation advances the clock by the measured wall time
 *    of its compute;
 *  - flush/fence events (reported by the NVM layer through the
 *    PersistObserver hook) add modeled stall time;
 *  - SimMutex / SimSharedMutex (lock.h) merge clocks so contended locks
 *    serialize logical time exactly as real locks serialize wall time;
 *  - each logical thread is its own persistence domain, so its fences
 *    retire only its own flushes, as on a real core.
 *
 * Simulated throughput is ops / max(logical clocks). The library itself
 * remains safe under real std::thread use (see tests); only the
 * *throughput figures* come from this executor.
 */
#ifndef CNVM_SIM_CONTEXT_H
#define CNVM_SIM_CONTEXT_H

#include <cstdint>

#include "nvm/hooks.h"
#include "stats/simtime.h"

namespace cnvm::sim {

/** One logical thread: a clock, its persistence pipeline and its
 *  persistence domain. */
class ThreadCtx : public nvm::PersistObserver {
 public:
    explicit ThreadCtx(unsigned tid = 0) : tid_(tid) {}

    unsigned tid() const { return tid_; }
    nvm::PersistDomain& domain() { return domain_; }
    uint64_t clockNs() const { return clockNs_; }

    /** Advance the clock by compute (measured or modeled) time. */
    void advance(uint64_t ns) { clockNs_ += ns; }

    /** Merge-wait: jump forward to `t` if it is in the future. */
    void
    waitUntil(uint64_t t)
    {
        if (t > clockNs_)
            clockNs_ = t;
    }

    void
    reset()
    {
        clockNs_ = 0;
        persist_.reset();
    }

    // nvm::PersistObserver
    void
    flushed(uint64_t bytes) override
    {
        persist_.onFlush(clockNs_, bytes);
    }

    void
    fenced() override
    {
        clockNs_ += persist_.onFence(clockNs_);
    }

 private:
    unsigned tid_;
    uint64_t clockNs_ = 0;
    stats::PersistClock persist_;
    nvm::PersistDomain domain_;
};

/** The logical thread currently executing, or nullptr (real-thread mode). */
ThreadCtx* cur();

/** Install/clear the calling OS thread's logical context. */
void setCur(ThreadCtx* ctx);

/** RAII scope installing a logical context (and its persist observer
 *  and persistence domain). */
class Scope {
 public:
    explicit Scope(ThreadCtx* ctx)
    {
        setCur(ctx);
        nvm::setPersistObserver(ctx);
        nvm::setPersistDomain(&ctx->domain());
    }

    ~Scope()
    {
        setCur(nullptr);
        nvm::setPersistObserver(nullptr);
        nvm::setPersistDomain(nullptr);
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
};

}  // namespace cnvm::sim

#endif  // CNVM_SIM_CONTEXT_H
