/**
 * @file
 * CrashScheduler: deterministic crash-point injection driven by the
 * cache model's persistency-event stream.
 *
 * The old crash tests armed Pool's write trap ("crash at the k-th
 * pool write"), which silently under-covers: a protocol change that
 * adds flushes or fences without adding writes creates crash windows
 * no write count can reach. The scheduler instead subscribes to the
 * CacheSim's LineObserver feed and counts *persistency events* — the
 * taxonomy recovery actually cares about (DESIGN.md §11):
 *
 *   store   a cache line is dirtied (observer runs before the store's
 *           memcpy, so a crash here loses the store entirely);
 *   clwb    a dirty line moves to the pending state;
 *   sfence  the fence retires the fencing domain's pending lines to
 *           durable (every pending line, with one domain).
 *
 * arm(k) throws nvm::CrashInjected in place of the k-th subsequent
 * event (k = 1 is the very next one). The trap disarms itself when it
 * fires, so the recovery that follows runs to completion unless the
 * caller re-arms it (the recovery-idempotence tests do exactly that).
 *
 * Installing the observer disables CacheSim's dirty-line fast path, so
 * every transition is visible — including re-dirties of already-dirty
 * lines, which are crash sites too. Event counting is exact and
 * deterministic for a deterministic workload, which is what makes the
 * fuzzer's (seed, event-index) pairs replayable.
 */
#ifndef CNVM_TESTING_CRASH_SCHEDULER_H
#define CNVM_TESTING_CRASH_SCHEDULER_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "nvm/pool.h"

namespace cnvm::torture {

/** Persistency-event taxonomy (one crash site per event). */
enum class EventKind : uint8_t {
    store = 0,  ///< a line was dirtied by a store
    clwb = 1,   ///< a dirty line was flushed
    sfence = 2, ///< a fence retired the pending lines
};

constexpr size_t kNumEventKinds = 3;

const char* eventKindName(EventKind k);

/** One observed event (trace mode, --list-sites). */
struct TraceEvent {
    EventKind kind;
    uint64_t line;  ///< cache-line number (0 for sfence)
};

class CrashScheduler : public nvm::LineObserver {
 public:
    /** Installs itself as `pool`'s line observer. */
    explicit CrashScheduler(nvm::Pool& pool);
    ~CrashScheduler() override;

    CrashScheduler(const CrashScheduler&) = delete;
    CrashScheduler& operator=(const CrashScheduler&) = delete;

    /**
     * Crash at the `countdown`-th event from now (1 = the next one);
     * 0 disarms. The trap disarms itself when it fires.
     */
    void
    arm(uint64_t countdown)
    {
        countdown_ = countdown;
        fired_ = false;
    }

    void disarm() { countdown_ = 0; }
    bool armed() const { return countdown_ != 0; }

    /** Did the last armed trap fire? */
    bool fired() const { return fired_; }

    /** The event the last trap fired on. */
    TraceEvent firedEvent() const { return firedEvent_; }

    /** Events observed since construction / resetCounts(). */
    uint64_t eventCount() const { return total_; }
    uint64_t count(EventKind k) const
    {
        return perKind_[static_cast<size_t>(k)];
    }
    void resetCounts();

    /** Capture every event into trace() (for --list-sites). */
    void setTraceEnabled(bool on) { traceEnabled_ = on; }
    const std::vector<TraceEvent>& trace() const { return trace_; }
    void clearTrace() { trace_.clear(); }

    /** "k: store line 123" site listing of the captured trace. */
    std::string describeTrace() const;

    // nvm::LineObserver
    void lineDirtied(uint64_t line) override
    {
        onEvent(EventKind::store, line);
    }
    void lineFlushed(uint64_t line) override
    {
        onEvent(EventKind::clwb, line);
    }
    void fenceRetired() override { onEvent(EventKind::sfence, 0); }
    /** Crash/discard processing: never counted, never throws. */
    void trackingReset() override {}

 private:
    void onEvent(EventKind k, uint64_t line);

    nvm::Pool& pool_;
    uint64_t countdown_ = 0;
    bool fired_ = false;
    bool traceEnabled_ = false;
    TraceEvent firedEvent_{EventKind::store, 0};
    uint64_t total_ = 0;
    std::array<uint64_t, kNumEventKinds> perKind_{};
    std::vector<TraceEvent> trace_;
};

}  // namespace cnvm::torture

#endif  // CNVM_TESTING_CRASH_SCHEDULER_H
