#include "nvm/hooks.h"

#include "stats/counters.h"

namespace cnvm::nvm {

namespace {
thread_local PersistObserver* tlsObserver = nullptr;
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

}  // namespace cnvm::nvm
