#include "sim/executor.h"

#include <algorithm>
#include <cstdlib>

#include "common/error.h"
#include "sim/lock.h"

namespace cnvm::sim {

LockCosts&
lockCosts()
{
    static LockCosts c;
    return c;
}

double
computeScale()
{
    static const double scale = [] {
        const char* v = std::getenv("CNVM_COMPUTE_SCALE");
        return v != nullptr ? std::atof(v) : 0.2;
    }();
    return scale;
}

Executor::Executor(unsigned nThreads) : nThreads_(nThreads)
{
    CNVM_CHECK(nThreads > 0, "executor needs at least one thread");
    ctxs_.reserve(nThreads);
    for (unsigned t = 0; t < nThreads; t++)
        ctxs_.emplace_back(t);
}

double
Executor::run(size_t opsPerThread, const OpFn& op)
{
    using clock = std::chrono::steady_clock;
    for (size_t i = 0; i < opsPerThread; i++) {
        for (unsigned t = 0; t < nThreads_; t++) {
            ThreadCtx& c = ctxs_[t];
            Scope scope(&c);
            auto t0 = clock::now();
            op(c, i);
            auto t1 = clock::now();
            auto ns = static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0).count());
            c.advance(static_cast<uint64_t>(ns * computeScale()));
        }
    }
    return static_cast<double>(elapsedNs()) * 1e-9;
}

uint64_t
Executor::elapsedNs() const
{
    uint64_t mx = 0;
    for (const auto& c : ctxs_)
        mx = std::max(mx, c.clockNs());
    return mx;
}

void
Executor::resetClocks()
{
    for (auto& c : ctxs_)
        c.reset();
}

}  // namespace cnvm::sim
