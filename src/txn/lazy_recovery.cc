#include "txn/lazy_recovery.h"

#include <algorithm>

#include "alloc/pm_allocator.h"
#include "nvm/pool.h"

namespace cnvm::txn {

RecoveryReport
Runtime::recover()
{
    LazyRecovery session(*this);
    session.drain();
    return session.report();
}

LazyRecovery::LazyRecovery(Runtime& rt)
    : rt_(rt), idx_(rt.recoveryTriage()),
      state_(idx_.entries.size(), kPending)
{
    report_.slotsScanned = rt.pool().maxThreads();
    rt_.heap().beginSession();
    for (const HoldRange& h : idx_.holds)
        rt_.heap().addHold(h.tid, h.off, h.bytes);
    unsigned maxTid = 0;
    for (const IndexEntry& e : idx_.entries)
        maxTid = std::max(maxTid, e.tid);
    byTid_.assign(idx_.entries.empty() ? 0 : maxTid + 1, -1);
    for (size_t i = 0; i < idx_.entries.size(); i++)
        byTid_[idx_.entries[i].tid] = static_cast<int32_t>(i);
}

LazyRecovery::~LazyRecovery()
{
    stopHealer();
}

void
LazyRecovery::healEntryLocked(size_t i, std::unique_lock<std::mutex>& lk)
{
    while (state_[i] == kHealing)
        cv_.wait(lk);
    if (state_[i] == kHealed)
        return;
    state_[i] = kHealing;
    lk.unlock();
    RecoveryReport r;
    try {
        std::lock_guard<std::mutex> heal(healMu_);
        r = rt_.healSlot(idx_.entries[i]);
    } catch (...) {
        // Idempotent retry contract: the entry goes back to pending
        // so the next toucher (or a fresh triage after a re-tear)
        // runs the heal again.
        lk.lock();
        state_[i] = kPending;
        cv_.notify_all();
        throw;
    }
    lk.lock();
    state_[i] = kHealed;
    healedEntries_++;
    report_.merge(r);
    rt_.heap().releaseHolds(idx_.entries[i].tid);
    cv_.notify_all();
}

void
LazyRecovery::healHeapLocked(std::unique_lock<std::mutex>& lk)
{
    while (heapHealing_)
        cv_.wait(lk);
    if (heapHealed_)
        return;
    heapHealing_ = true;
    lk.unlock();
    RecoveryReport r;
    try {
        std::lock_guard<std::mutex> heal(healMu_);
        r = rt_.healHeap();
    } catch (...) {
        lk.lock();
        heapHealing_ = false;
        cv_.notify_all();
        throw;
    }
    lk.lock();
    heapHealing_ = false;
    heapHealed_ = true;
    report_.merge(r);
    cv_.notify_all();
}

void
LazyRecovery::admit(unsigned tid)
{
    if (tid >= byTid_.size() || byTid_[tid] < 0)
        return;  // no pending entry for this slot
    auto i = static_cast<size_t>(byTid_[tid]);
    std::unique_lock<std::mutex> lk(mu_);
    if (state_[i] == kHealed)
        return;
    healEntryLocked(i, lk);
}

void
LazyRecovery::drain()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (size_t i = 0; i < state_.size(); i++)
        healEntryLocked(i, lk);
    healHeapLocked(lk);
}

void
LazyRecovery::healerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        size_t i = 0;
        for (; i < state_.size(); i++) {
            if (state_[i] == kPending)
                break;
        }
        if (i < state_.size()) {
            try {
                healEntryLocked(i, lk);
            } catch (...) {
                healerDied_ = true;
                cv_.notify_all();
                return;
            }
            continue;
        }
        if (healedEntries_ == state_.size()) {
            if (!heapHealed_ && !heapHealing_) {
                try {
                    healHeapLocked(lk);
                } catch (...) {
                    healerDied_ = true;
                    cv_.notify_all();
                    return;
                }
                continue;
            }
            if (heapHealed_)
                return;  // fully healed
        }
        // Someone else is mid-heal (entry or heap): their finish — or
        // a throw returning work to pending — wakes us.
        cv_.wait(lk);
    }
}

void
LazyRecovery::startHealer()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (healerStarted_)
        return;
    healerStarted_ = true;
    stop_ = false;
    healer_ = std::thread([this] { healerLoop(); });
}

void
LazyRecovery::stopHealer()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
        cv_.notify_all();
    }
    if (healer_.joinable())
        healer_.join();
    std::lock_guard<std::mutex> lk(mu_);
    healerStarted_ = false;
}

bool
LazyRecovery::done() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return healedEntries_ == state_.size() && heapHealed_;
}

uint64_t
LazyRecovery::pendingCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t n = state_.size() - healedEntries_;
    if (!heapHealed_)
        n++;
    return n;
}

uint64_t
LazyRecovery::healedCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t n = healedEntries_;
    if (heapHealed_)
        n++;
    return n;
}

bool
LazyRecovery::healerDied() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return healerDied_;
}

RecoveryReport
LazyRecovery::report() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return report_;
}

}  // namespace cnvm::txn
