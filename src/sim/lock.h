/**
 * @file
 * Dual-mode locks: real synchronization under OS threads, discrete-event
 * contention modeling under the logical-thread executor.
 *
 * In logical mode (sim::cur() != nullptr) the executor runs operations
 * one at a time, so no real mutual exclusion is needed; instead each lock
 * keeps "when will it be free" in simulated time and acquiring threads
 * wait (advance their clocks) accordingly. A global SimMutex therefore
 * serializes logical time across all threads — reproducing the flat
 * scaling of the paper's global-lock structures — while sharded or
 * per-node locks rarely collide and scale.
 *
 * In real-thread mode the same objects degrade to std::mutex /
 * std::shared_mutex so the library is actually thread-safe.
 */
#ifndef CNVM_SIM_LOCK_H
#define CNVM_SIM_LOCK_H

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "sim/context.h"

namespace cnvm::sim {

/** Cost knobs for lock primitives (added to logical clocks). */
struct LockCosts {
    uint64_t mutexAcquireNs = 40;   ///< uncontended pthread-style mutex
    uint64_t spinAcquireNs = 12;    ///< test-and-set spinlock
    uint64_t rwAcquireNs = 60;      ///< reader-writer lock
};

LockCosts& lockCosts();

/** Exclusive lock. `spin` selects the cheaper-acquire spinlock model. */
class SimMutex {
 public:
    explicit SimMutex(bool spin = false) : spin_(spin) {}

    void
    lock()
    {
        if (auto* c = cur()) {
            c->waitUntil(freeAt_);
            c->advance(spin_ ? lockCosts().spinAcquireNs
                             : lockCosts().mutexAcquireNs);
        } else {
            real_.lock();
        }
    }

    void
    unlock()
    {
        if (auto* c = cur())
            freeAt_ = c->clockNs();
        else
            real_.unlock();
    }

 private:
    bool spin_;
    uint64_t freeAt_ = 0;
    std::mutex real_;
};

/** Reader-writer lock with overlapping readers in logical time. */
class SimSharedMutex {
 public:
    void
    lock()
    {
        if (auto* c = cur()) {
            c->waitUntil(std::max(writerFreeAt_, readersFreeAt_));
            c->advance(lockCosts().rwAcquireNs);
        } else {
            real_.lock();
        }
    }

    void
    unlock()
    {
        if (auto* c = cur())
            writerFreeAt_ = c->clockNs();
        else
            real_.unlock();
    }

    void
    lock_shared()
    {
        if (auto* c = cur()) {
            c->waitUntil(writerFreeAt_);
            c->advance(lockCosts().rwAcquireNs);
        } else {
            real_.lock_shared();
        }
    }

    void
    unlock_shared()
    {
        if (auto* c = cur()) {
            if (c->clockNs() > readersFreeAt_)
                readersFreeAt_ = c->clockNs();
        } else {
            real_.unlock_shared();
        }
    }

 private:
    uint64_t writerFreeAt_ = 0;
    uint64_t readersFreeAt_ = 0;
    std::shared_mutex real_;
};

/**
 * A fixed array of SimSharedMutex, addressed by hash — used for per-node
 * locking of persistent structures (volatile locks cannot live inside
 * NVM nodes, so they are kept in this side table keyed by node offset).
 */
class LockShard {
 public:
    explicit LockShard(size_t n = 1024) : locks_(n) {}

    SimSharedMutex&
    forOffset(uint64_t off)
    {
        // Offsets are at least 16-byte aligned; drop low bits before
        // mixing so neighbors do not collide systematically.
        uint64_t h = (off >> 4) * 0x9e3779b97f4a7c15ULL;
        return locks_[(h >> 32) % locks_.size()];
    }

 private:
    std::vector<SimSharedMutex> locks_;
};

}  // namespace cnvm::sim

#endif  // CNVM_SIM_LOCK_H
