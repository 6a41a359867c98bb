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
 *  - PersistDomain: the identity of the calling thread's persistence
 *    domain, whose fence orders only its own flushes (one core's sfence
 *    orders that core's clwbs). Each OS thread has one; sim::Scope
 *    installs a logical thread's in its place. CacheSim keeps the
 *    domain's state (pending lines, dirty-line cache, counters) per
 *    sim, keyed by the domain's id; the identity only remembers where
 *    that state lives in the sim it used last.
 */
#ifndef CNVM_NVM_HOOKS_H
#define CNVM_NVM_HOOKS_H

#include <cstddef>
#include <cstdint>

namespace cnvm::nvm {

class CacheSim;

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
 * Identity of one persistence domain, used by one thread at a time. A
 * copy is a new domain. Each CacheSim the domain touches registers
 * state for it under id(); the identity caches that state for the last
 * sim it used, tagged with the sim's never-reused id, so a destroyed
 * sim's entry never matches.
 */
class PersistDomain {
 public:
    constexpr PersistDomain() = default;
    PersistDomain(const PersistDomain&) {}
    PersistDomain& operator=(const PersistDomain&) { return *this; }

    /** Never reused; drawn on first call. */
    uint64_t id();

 private:
    friend class CacheSim;
    uint64_t id_ = 0;
    uint64_t simId_ = 0;     ///< sim whose state `state_` is
    void* state_ = nullptr;  ///< that sim's CacheSim::Domain
};

namespace detail {
/** The installed logical domain, or nullptr for the thread's own. */
inline PersistDomain*&
installedDomain()
{
    static thread_local PersistDomain* d = nullptr;
    return d;
}
}  // namespace detail

/** Install (or clear, with nullptr) the calling thread's domain. */
inline void
setPersistDomain(PersistDomain* d)
{
    detail::installedDomain() = d;
}

/** The calling thread's domain. Inline: looked up per store. */
inline PersistDomain&
persistDomain()
{
    static thread_local PersistDomain own;
    PersistDomain* d = detail::installedDomain();
    return d != nullptr ? *d : own;
}

}  // namespace cnvm::nvm

#endif  // CNVM_NVM_HOOKS_H
