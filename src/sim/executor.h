/**
 * @file
 * Round-robin logical-thread executor.
 *
 * run() executes `opsPerThread` operations on each of N logical threads,
 * interleaving one operation per thread per round so logical clocks stay
 * loosely synchronized (which keeps the discrete-event lock model
 * faithful). The wall time of each operation's compute is measured and
 * added to the executing thread's clock; persistence stalls and lock
 * waits are added by the hooks in context.h / lock.h.
 *
 * The simulated elapsed time of the run is the maximum logical clock.
 *
 * Measured compute is scaled by computeScale() before entering the
 * clock: the interposition layer (virtual calls, read/write-set
 * tracking, software cache model) costs roughly 5x what the paper's
 * compiler-instrumented native code pays per access, so the default
 * scale of 0.2 restores a realistic compute-to-persistence-stall
 * ratio. Override with CNVM_COMPUTE_SCALE=<float>.
 */
#ifndef CNVM_SIM_EXECUTOR_H
#define CNVM_SIM_EXECUTOR_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/context.h"

namespace cnvm::sim {

class Executor {
 public:
    using OpFn = std::function<void(ThreadCtx&, size_t opIndex)>;

    explicit Executor(unsigned nThreads);

    unsigned nThreads() const { return nThreads_; }
    ThreadCtx& ctx(unsigned tid) { return ctxs_[tid]; }

    /**
     * Run `opsPerThread` ops on every logical thread.
     * @return simulated elapsed seconds (max logical clock).
     */
    double run(size_t opsPerThread, const OpFn& op);

    /** Max logical clock, in nanoseconds. */
    uint64_t elapsedNs() const;

    /** Zero every logical clock (between measurement phases). */
    void resetClocks();

 private:
    unsigned nThreads_;
    std::vector<ThreadCtx> ctxs_;
};

/** Calibration factor applied to measured compute time. */
double computeScale();

}  // namespace cnvm::sim

#endif  // CNVM_SIM_EXECUTOR_H
