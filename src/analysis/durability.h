/**
 * @file
 * Dynamic durability-order validator.
 *
 * Mirrors the cache model's line state machine (dirty -> pending ->
 * durable) from the CacheSim event stream and audits every
 * transaction commit: a runtime that claims durability must leave no
 * line dirty (written but never flushed) when txCommit returns.
 *
 * Flushed-but-unfenced lines at commit are reported separately as
 * advisories, not violations: the shipped runtimes deliberately clear
 * the allocation-intent count with a lazy (unfenced) flush after the
 * commit point, which is crash-safe because re-running the empty
 * free-completion path is idempotent (see RuntimeBase::
 * finishIntentsAfterCommit). Options::failOnPending upgrades the
 * advisory to a violation for stricter protocols.
 *
 * The validator only models lines dirtied after it attaches, so
 * pre-existing setup writes never produce false positives. Attaching
 * is the only cost knob: with no observer installed, CacheSim and
 * txn::run each pay a single null check (zero-cost-when-off).
 *
 * Attaching also disables CacheSim's per-domain dirty-line fast path
 * (the install bumps the sim's generation, and no cache refills happen
 * while an observer is present), so the validator still receives every
 * per-line transition — including re-dirties of already-dirty lines —
 * exactly as the pre-sharding single-table implementation reported
 * them. Callbacks now arrive under the owning *shard's* lock rather
 * than one global mutex; the validator's own mutex serializes them.
 * Attach/detach during quiescence.
 *
 * The mirror is exact for one persistence domain. fenceRetired() means
 * the calling domain's pending lines retired, but the mirror drops
 * every pending line it holds, so with several domains fencing it
 * under-reports pending advisories; dirty-line violations stay exact.
 */
#ifndef CNVM_ANALYSIS_DURABILITY_H
#define CNVM_ANALYSIS_DURABILITY_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "nvm/cache_sim.h"
#include "txn/engine.h"

namespace cnvm::analysis {

class DurabilityValidator final : public nvm::LineObserver,
                                  public txn::CommitObserver {
 public:
    struct Options {
        /** The runtime claims committed transactions are durable
         *  (false for the no-log baseline). */
        bool requireDurability = true;
        /** Treat flushed-but-unfenced lines at commit as violations
         *  instead of advisories. */
        bool failOnPending = false;
    };

    /** One failed commit audit. */
    struct Violation {
        unsigned tid;
        uint64_t commitIndex;   ///< ordinal of the audited commit
        size_t dirtyLines;
        size_t pendingLines;
        std::vector<uint64_t> sample;  ///< up to 4 offending lines
    };

    /** Attaches to `cache` as its line observer. */
    explicit DurabilityValidator(nvm::CacheSim& cache)
        : DurabilityValidator(cache, Options{}) {}
    DurabilityValidator(nvm::CacheSim& cache, Options opt);
    ~DurabilityValidator() override;

    DurabilityValidator(const DurabilityValidator&) = delete;
    DurabilityValidator& operator=(const DurabilityValidator&) = delete;

    /** @name LineObserver (called by CacheSim under its mutex) */
    /// @{
    void lineDirtied(uint64_t line) override;
    void lineFlushed(uint64_t line) override;
    void fenceRetired() override;
    void trackingReset() override;
    /// @}

    /** CommitObserver: audit the commit that just returned. */
    void afterCommit(unsigned tid) override;

    const std::vector<Violation>& violations() const;
    uint64_t commitsChecked() const;
    uint64_t pendingAdvisories() const;
    size_t dirtyNow() const;

    /** One-line audit summary. */
    std::string summary() const;

 private:
    nvm::CacheSim& cache_;
    Options opt_;
    mutable std::mutex mu_;
    std::unordered_set<uint64_t> dirty_;
    std::unordered_set<uint64_t> pending_;
    uint64_t commits_ = 0;
    uint64_t pendingAdvisories_ = 0;
    std::vector<Violation> violations_;
};

}  // namespace cnvm::analysis

#endif  // CNVM_ANALYSIS_DURABILITY_H
