/**
 * @file
 * Event counters for the persistence subsystem.
 *
 * Every runtime (undo, redo, clobber, atlas, ido) and the NVM layer report
 * events here. The counters drive the paper's log-volume analysis
 * (Figures 7, 8, 13) and the headline ratios in Section 5.3.
 *
 * Counters are per-thread (no contention on the hot path); a global
 * registry aggregates them on demand, also while the owning threads
 * keep counting.
 */
#ifndef CNVM_STATS_COUNTERS_H
#define CNVM_STATS_COUNTERS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace cnvm::stats {

/** Identifiers of every counted event. */
enum class Counter : unsigned {
    nvmWrites,        ///< interposed stores reaching NVM addresses
    nvmWriteBytes,    ///< bytes of those stores
    flushes,          ///< clwb/clflush issued
    fences,           ///< sfence issued
    txBegins,
    txCommits,
    undoEntries,      ///< undo-log entries (PMDK / Atlas / clobber_log)
    undoBytes,        ///< payload bytes of those entries
    redoEntries,
    redoBytes,
    vlogEntries,      ///< v_log records (one per Clobber-NVM transaction)
    vlogBytes,
    clobberEntries,   ///< clobber_log entries (subset of undoEntries)
    clobberBytes,
    idoEntries,       ///< idempotent-region boundary logs
    idoBytes,
    lockLogEntries,   ///< Atlas lock acquire/release log records
    depRecords,       ///< Atlas cross-FASE dependency records
    logEntries,       ///< log appends through RuntimeBase (any protocol)
    logBytes,         ///< log-area bytes those appends consumed
    logFlushes,       ///< flush operations issued for log bytes
                      ///  (one per entry)
    allocs,
    frees,
    recoveries,       ///< transactions repaired at recovery
    reexecutions,     ///< transactions re-executed at recovery
    persistChecks,    ///< commits audited by the durability validator
    persistDirtyAtCommit,    ///< lines dirty (never flushed) at commit
    persistPendingAtCommit,  ///< lines flushed but unfenced at commit
    mediaBitFlips,    ///< injected bit flips (FaultModel)
    mediaPoisons,     ///< injected poisoned lines
    mediaTransients,  ///< injected transient-fault lines
    mediaPoisonReads, ///< guarded reads that hit a poisoned line
    mediaRetries,     ///< transient-fault read retries
    salvageDroppedEntries,   ///< log entries dropped by salvage scans
    salvageAborts,    ///< transactions declared salvage-aborted
    quarantinedBlocks,       ///< heap ranges quarantined at rebuild
    quarantinedBytes,
    kNumCounters
};

constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

/** Human-readable counter name (for reports). */
const char* counterName(Counter c);

/** A flat bundle of counter values. */
struct Snapshot {
    std::array<uint64_t, kNumCounters> v{};

    uint64_t
    operator[](Counter c) const
    {
        return v[static_cast<size_t>(c)];
    }

    Snapshot& operator+=(const Snapshot& o);
    Snapshot operator-(const Snapshot& o) const;

    /** Multi-line "name = value" dump of the non-zero counters. */
    std::string toString() const;
};

/**
 * Per-thread counter block, registered globally on construction. Only
 * the owning thread bumps it; aggregate() may read it from any thread
 * at any time, so each counter is a relaxed atomic.
 */
class ThreadCounters {
 public:
    ThreadCounters();
    ~ThreadCounters();

    void
    add(Counter c, uint64_t n = 1)
    {
        // One writer, so a relaxed load and store suffice: the bump
        // stays a plain load, add and store, with no locked
        // read-modify-write.
        std::atomic<uint64_t>& v = v_[static_cast<size_t>(c)];
        v.store(v.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
    }

 private:
    friend Snapshot aggregate();
    friend void resetAll();
    /** Add this block's current values to `out`. */
    void addTo(Snapshot& out) const;
    std::array<std::atomic<uint64_t>, kNumCounters> v_{};
};

/** The calling thread's counter block. Inline: bump() is on the
 *  per-store hot path of the NVM model. */
inline ThreadCounters&
local()
{
    static thread_local ThreadCounters tc;
    return tc;
}

/** Shorthand: bump a counter on the calling thread. */
inline void
bump(Counter c, uint64_t n = 1)
{
    local().add(c, n);
}

/** Sum of all live (and retired) thread counters. */
Snapshot aggregate();

/** Zero every counter (between benchmark configurations, while no
 *  thread counts: a concurrent bump may undo the reset). */
void resetAll();

}  // namespace cnvm::stats

#endif  // CNVM_STATS_COUNTERS_H
