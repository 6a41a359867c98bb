#include "stats/counters.h"

#include <mutex>
#include <sstream>
#include <vector>

namespace cnvm::stats {

namespace {

/** Registry of live thread blocks plus totals from exited threads. */
struct Registry {
    std::mutex mu;
    std::vector<ThreadCounters*> live;
    Snapshot retired;
};

Registry&
registry()
{
    static Registry r;
    return r;
}

}  // namespace

const char*
counterName(Counter c)
{
    switch (c) {
      case Counter::nvmWrites: return "nvm_writes";
      case Counter::nvmWriteBytes: return "nvm_write_bytes";
      case Counter::flushes: return "flushes";
      case Counter::fences: return "fences";
      case Counter::txBegins: return "tx_begins";
      case Counter::txCommits: return "tx_commits";
      case Counter::undoEntries: return "undo_entries";
      case Counter::undoBytes: return "undo_bytes";
      case Counter::redoEntries: return "redo_entries";
      case Counter::redoBytes: return "redo_bytes";
      case Counter::vlogEntries: return "vlog_entries";
      case Counter::vlogBytes: return "vlog_bytes";
      case Counter::clobberEntries: return "clobber_entries";
      case Counter::clobberBytes: return "clobber_bytes";
      case Counter::idoEntries: return "ido_entries";
      case Counter::idoBytes: return "ido_bytes";
      case Counter::lockLogEntries: return "lock_log_entries";
      case Counter::depRecords: return "dep_records";
      case Counter::logEntries: return "log_entries";
      case Counter::logBytes: return "log_bytes";
      case Counter::logFlushes: return "log_flushes";
      case Counter::allocs: return "allocs";
      case Counter::frees: return "frees";
      case Counter::recoveries: return "recoveries";
      case Counter::reexecutions: return "reexecutions";
      case Counter::persistChecks: return "persist_checks";
      case Counter::persistDirtyAtCommit:
        return "persist_dirty_at_commit";
      case Counter::persistPendingAtCommit:
        return "persist_pending_at_commit";
      case Counter::mediaBitFlips: return "media_bit_flips";
      case Counter::mediaPoisons: return "media_poisons";
      case Counter::mediaTransients: return "media_transients";
      case Counter::mediaPoisonReads: return "media_poison_reads";
      case Counter::mediaRetries: return "media_retries";
      case Counter::salvageDroppedEntries:
        return "salvage_dropped_entries";
      case Counter::salvageAborts: return "salvage_aborts";
      case Counter::quarantinedBlocks: return "quarantined_blocks";
      case Counter::quarantinedBytes: return "quarantined_bytes";
      case Counter::kNumCounters: break;
    }
    return "unknown";
}

Snapshot&
Snapshot::operator+=(const Snapshot& o)
{
    for (size_t i = 0; i < kNumCounters; i++)
        v[i] += o.v[i];
    return *this;
}

Snapshot
Snapshot::operator-(const Snapshot& o) const
{
    Snapshot out;
    for (size_t i = 0; i < kNumCounters; i++)
        out.v[i] = v[i] - o.v[i];
    return out;
}

std::string
Snapshot::toString() const
{
    std::ostringstream os;
    for (size_t i = 0; i < kNumCounters; i++) {
        if (v[i] == 0)
            continue;
        os << counterName(static_cast<Counter>(i)) << " = " << v[i]
           << "\n";
    }
    return os.str();
}

ThreadCounters::ThreadCounters()
{
    auto& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    r.live.push_back(this);
}

ThreadCounters::~ThreadCounters()
{
    auto& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    addTo(r.retired);
    std::erase(r.live, this);
}

void
ThreadCounters::addTo(Snapshot& out) const
{
    for (size_t i = 0; i < kNumCounters; i++)
        out.v[i] += v_[i].load(std::memory_order_relaxed);
}

Snapshot
aggregate()
{
    auto& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    Snapshot out = r.retired;
    for (auto* t : r.live)
        t->addTo(out);
    return out;
}

void
resetAll()
{
    auto& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    r.retired = Snapshot{};
    for (auto* t : r.live) {
        for (auto& v : t->v_)
            v.store(0, std::memory_order_relaxed);
    }
}

}  // namespace cnvm::stats
