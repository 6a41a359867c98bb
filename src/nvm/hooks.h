/**
 * @file
 * Per-thread hooks connecting the NVM layer to the rest of the system:
 *
 *  - PersistObserver: reports flush/fence events to the timing
 *    simulator. The logical-thread executor in src/sim installs a
 *    per-thread observer that converts them into simulated stall time;
 *    when none is installed (unit tests, real-thread mode) events are
 *    only counted.
 *  - notifyFlush()/notifyFence(): the single place where a persistence
 *    event bumps the stats counter *and* feeds the observer, so every
 *    flush path (range flush, batched line flush, fence) accounts
 *    identically.
 *  - DirtyLineCache: the per-thread epoch-tagged cache of lines this
 *    thread already dirtied. Pool::write consults it to skip the shard
 *    lock of CacheSim entirely for repeated stores to a dirty line; any
 *    event that can move a line out of the dirty state (flush, fence,
 *    crash, observer install) invalidates all caches by bumping the
 *    owning CacheSim's epoch.
 */
#ifndef CNVM_NVM_HOOKS_H
#define CNVM_NVM_HOOKS_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace cnvm::nvm {

/** Receives persistence events for the calling thread. */
class PersistObserver {
 public:
    virtual ~PersistObserver() = default;
    /** A cache-line flush (clwb) of `bytes` was issued. */
    virtual void flushed(uint64_t bytes) = 0;
    /** A store fence (sfence) was issued. */
    virtual void fenced() = 0;
};

/** Install (or clear, with nullptr) the calling thread's observer. */
void setPersistObserver(PersistObserver* obs);

/**
 * Account one clwb burst of `nlines` adjacent lines (`bytes` total):
 * bumps the flush counter and reports the calling thread's
 * PersistObserver in one place.
 */
void notifyFlush(uint64_t nlines, uint64_t bytes);

/** Account one sfence: counter bump + observer notification. */
void notifyFence();

/**
 * Direct-mapped, epoch-tagged cache of cache-line numbers the calling
 * thread knows to be dirty in some CacheSim. A way is valid iff its
 * epoch equals the probing CacheSim's current epoch; epochs are drawn
 * from a process-global counter, so a value never recurs across sims
 * (or across flush/fence/crash boundaries within one sim) and stale
 * ways simply miss. Collisions evict silently — the cache is purely an
 * optimization; the shard table stays authoritative.
 */
struct DirtyLineCache {
    static constexpr size_t kWays = 1024;   // 16 KiB per thread

    struct Way {
        uint64_t line1 = 0;   ///< line number + 1; 0 = empty
        uint64_t epoch = 0;   ///< epoch the entry was inserted under
    };

    std::array<Way, kWays> ways;
};

/** The calling thread's dirty-line cache. Inline: probed per store. */
inline DirtyLineCache&
dirtyLineCache()
{
    static thread_local DirtyLineCache tc;
    return tc;
}

}  // namespace cnvm::nvm

#endif  // CNVM_NVM_HOOKS_H
