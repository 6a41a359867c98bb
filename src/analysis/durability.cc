#include "analysis/durability.h"

#include <sstream>

#include "stats/counters.h"

namespace cnvm::analysis {

DurabilityValidator::DurabilityValidator(nvm::CacheSim& cache,
                                         Options opt)
    : cache_(cache), opt_(opt)
{
    cache_.setLineObserver(this);
}

DurabilityValidator::~DurabilityValidator()
{
    cache_.setLineObserver(nullptr);
}

void
DurabilityValidator::lineDirtied(uint64_t line)
{
    std::lock_guard<std::mutex> g(mu_);
    pending_.erase(line);
    dirty_.insert(line);
}

void
DurabilityValidator::lineFlushed(uint64_t line)
{
    std::lock_guard<std::mutex> g(mu_);
    // Only lines we saw dirtied move to pending; a clwb of a line the
    // cache model tracks but we never observed stays invisible.
    if (dirty_.erase(line) > 0)
        pending_.insert(line);
}

void
DurabilityValidator::fenceRetired()
{
    std::lock_guard<std::mutex> g(mu_);
    pending_.clear();
}

void
DurabilityValidator::trackingReset()
{
    std::lock_guard<std::mutex> g(mu_);
    dirty_.clear();
    pending_.clear();
}

void
DurabilityValidator::afterCommit(unsigned tid)
{
    std::lock_guard<std::mutex> g(mu_);
    commits_++;
    stats::bump(stats::Counter::persistChecks);
    size_t nd = dirty_.size();
    size_t np = pending_.size();
    if (nd > 0)
        stats::bump(stats::Counter::persistDirtyAtCommit, nd);
    if (np > 0) {
        stats::bump(stats::Counter::persistPendingAtCommit, np);
        pendingAdvisories_ += np;
    }
    bool bad = (opt_.requireDurability && nd > 0) ||
               (opt_.failOnPending && np > 0);
    if (!bad)
        return;
    Violation v{tid, commits_, nd, np, {}};
    for (uint64_t ln : dirty_) {
        if (v.sample.size() >= 4)
            break;
        v.sample.push_back(ln);
    }
    if (opt_.failOnPending) {
        for (uint64_t ln : pending_) {
            if (v.sample.size() >= 4)
                break;
            v.sample.push_back(ln);
        }
    }
    violations_.push_back(std::move(v));
}

const std::vector<DurabilityValidator::Violation>&
DurabilityValidator::violations() const
{
    return violations_;
}

uint64_t
DurabilityValidator::commitsChecked() const
{
    std::lock_guard<std::mutex> g(mu_);
    return commits_;
}

uint64_t
DurabilityValidator::pendingAdvisories() const
{
    std::lock_guard<std::mutex> g(mu_);
    return pendingAdvisories_;
}

size_t
DurabilityValidator::dirtyNow() const
{
    std::lock_guard<std::mutex> g(mu_);
    return dirty_.size();
}

std::string
DurabilityValidator::summary() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::ostringstream os;
    os << commits_ << " commits audited, " << violations_.size()
       << " violations, " << pendingAdvisories_
       << " pending-line advisories";
    return os.str();
}

}  // namespace cnvm::analysis
