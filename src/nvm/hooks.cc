#include "nvm/hooks.h"

#include <atomic>

#include "stats/counters.h"

namespace cnvm::nvm {

namespace {
thread_local PersistObserver* tlsObserver = nullptr;
std::atomic<uint64_t> gDomainIds{0};
}  // namespace

void
setPersistObserver(PersistObserver* obs)
{
    tlsObserver = obs;
}

void
notifyFlush(uint64_t nlines, uint64_t bytes)
{
    stats::bump(stats::Counter::flushes, nlines);
    if (tlsObserver != nullptr)
        tlsObserver->flushed(bytes);
}

void
notifyFence()
{
    stats::bump(stats::Counter::fences);
    if (tlsObserver != nullptr)
        tlsObserver->fenced();
}

uint64_t
PersistDomain::id()
{
    if (id_ == 0)
        id_ = gDomainIds.fetch_add(1, std::memory_order_relaxed) + 1;
    return id_;
}

}  // namespace cnvm::nvm
