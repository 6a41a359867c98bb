/**
 * @file
 * Software model of the volatile write-back cache in front of NVM.
 *
 * The paper's machine model (Section 2.1): stores land in volatile
 * caches; a line only becomes durable once flushed (clwb) and ordered
 * (sfence), or when the hardware happens to evict it. On power loss,
 * unflushed lines are lost and writes may persist out of program order.
 *
 * This class reproduces exactly that hazard in software so crash tests
 * are meaningful on a DRAM host:
 *
 *  - willWrite() snapshots a line's last-durable content the first time
 *    it is dirtied;
 *  - flush()/flushLines() move lines to the "pending" state (clwb
 *    issued);
 *  - fence() makes pending lines durable (snapshots retired);
 *  - crash() tears the image: every still-volatile 8-byte word either
 *    keeps its new value (it was evicted in time) or reverts to the
 *    snapshot (it was lost), chosen pseudo-randomly.
 *
 * Persistence is atomic at 8-byte granularity, matching x86 NVM
 * guarantees, so crash() tears *within* cache lines too.
 *
 * Hot-path design (the model must be cheaper than the logging
 * protocols it measures):
 *
 *  - The line table is sharded: power-of-two shards keyed by line bits
 *    (16-line blocks round-robined over the shards), each an
 *    open-addressing flat table of line -> {state, snapshot} slots
 *    under its own mutex. It holds only dirty and pending lines: a
 *    fence erases the slot of every line it retires, by backward-shift
 *    deletion, so probe chains stay valid without tombstones and the
 *    table's size follows the volatile lines, not every line written.
 *  - Repeated stores to an already-dirty line skip the shard lock
 *    entirely: willWrite() first probes the calling thread's
 *    DirtyLineCache (see hooks.h). Entries are tagged with the sim's
 *    epoch; flush/fence/crash/observer-install bump the epoch (from a
 *    process-global counter, so values never recur) and thereby
 *    invalidate every thread's cache at once.
 *  - volatileLines() reads a maintained atomic count, O(1).
 *
 * With a LineObserver installed the fast path is disabled (the install
 * bumps the epoch and blocks cache refills), so the observer sees the
 * full per-line event feed, including re-dirties of already-dirty
 * lines — exactly the stream the single-table implementation produced.
 */
#ifndef CNVM_NVM_CACHE_SIM_H
#define CNVM_NVM_CACHE_SIM_H

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rand.h"
#include "nvm/hooks.h"

namespace cnvm::nvm {

constexpr size_t kCacheLine = 64;

/** Crash-model knobs. */
struct CrashParams {
    /** Probability a dirty (never flushed) word survives the crash. */
    double dirtySurvival = 0.5;
    /** Probability a flushed-but-unfenced word survives the crash. */
    double pendingSurvival = 0.75;
};

/**
 * Receives the raw cache-line state-transition stream of one CacheSim
 * (the dynamic persistency validator's feed). Unlike PersistObserver
 * (per-thread, timing-oriented, see hooks.h) this is per-pool and
 * reports individual line numbers. lineDirtied/lineFlushed run under
 * the owning shard's lock; fenceRetired/trackingReset run after the
 * shards have been processed. Implementations must not call back into
 * the CacheSim, and observers should be installed while the sim is
 * quiescent (no concurrent stores).
 */
class LineObserver {
 public:
    virtual ~LineObserver() = default;
    /** Line `line` became (or stayed) dirty via a store. */
    virtual void lineDirtied(uint64_t line) = 0;
    /** Line `line` moved dirty -> pending via a clwb. */
    virtual void lineFlushed(uint64_t line) = 0;
    /** All pending lines became durable via an sfence. */
    virtual void fenceRetired() = 0;
    /** All tracking dropped (crash or clean shutdown). */
    virtual void trackingReset() = 0;
};

class CacheSim {
 public:
    explicit CacheSim(uint8_t* base);

    CacheSim(const CacheSim&) = delete;
    CacheSim& operator=(const CacheSim&) = delete;

    /** Must be called immediately before mutating [off, off+len). */
    void
    willWrite(uint64_t off, size_t len)
    {
        if (len == 0)
            return;
        uint64_t first = off / kCacheLine;
        uint64_t last = (off + len - 1) / kCacheLine;
        uint64_t e = epoch_.load(std::memory_order_acquire);
        DirtyLineCache& c = dirtyLineCache();
        for (uint64_t ln = first; ln <= last; ln++) {
            const DirtyLineCache::Way& w =
                c.ways[ln & (DirtyLineCache::kWays - 1)];
            if (w.line1 != ln + 1 || w.epoch != e)
                return willWriteSlow(first, last, e, c);
        }
        // Every covered line is known dirty under the current epoch:
        // no state can change and no snapshot is needed.
    }

    /** clwb of the lines covering [off, off+len). Counts + observes. */
    void flush(uint64_t off, size_t len);

    /**
     * Batched clwb of `n` arbitrary line numbers (commit-time
     * write-back). Sorts and dedupes `lines` in place, takes each
     * shard lock once per sorted run, coalesces adjacent lines into
     * single clwb bursts for the PersistObserver, and bumps the flush
     * counter once per burst (n lines total).
     */
    void flushLines(uint64_t* lines, size_t n);

    /** sfence: all pending lines become durable. Counts + observes. */
    void fence();

    /**
     * Simulate a power loss: revert lost words to their last durable
     * content. Leaves the cache model empty (all lines clean).
     * @return number of 8-byte words that were reverted.
     */
    size_t crash(Xorshift& rng, const CrashParams& p = CrashParams{});

    /**
     * Worst-case power loss: every non-durable word reverts. Useful for
     * deterministic adversarial tests.
     */
    size_t crashAllLost();

    /** Power losses simulated so far (crash() and crashAllLost()). */
    uint64_t
    crashes() const
    {
        return crashes_.load(std::memory_order_relaxed);
    }

    /** Number of lines currently dirty or pending. O(1). */
    size_t
    volatileLines() const
    {
        return volatile_.load(std::memory_order_relaxed);
    }

    /** Is `line` currently dirty or pending? Probes one shard under
     *  its lock (fault injection skips volatile lines). */
    bool isVolatile(uint64_t line);

    /**
     * Install (or clear, with nullptr) the line-event observer. While
     * an observer is installed the dirty-line fast path is disabled so
     * the observer sees every transition. Install during quiescence.
     */
    void setLineObserver(LineObserver* obs);

 private:
    enum LineState : uint8_t {
        kEmpty = 0,    ///< no line in the slot
        kDirty,        ///< stored to since last durable point
        kPending,      ///< clwb issued, fence outstanding
    };

    struct Slot {
        /** Line number + 1; 0 = empty. First member so probe chains
         *  touch only the slot header, not the snapshot bytes. */
        uint64_t key = 0;
        LineState state = kEmpty;
        std::array<uint8_t, kCacheLine> snapshot;
    };

    struct Shard {
        std::mutex mu;
        /** Power-of-two open-addressing table; grows, never shrinks. */
        std::vector<Slot> slots;
        /** Lines with a clwb issued since the last fence. */
        std::vector<uint64_t> pending;
        /** Slots with key != 0 (load-factor accounting). */
        size_t used = 0;
    };

    static constexpr size_t kShardCount = 64;       // power of two
    static constexpr uint64_t kShardBlockBits = 4;  // 16 lines/shard hop

    Shard&
    shardOf(uint64_t line)
    {
        return shards_[(line >> kShardBlockBits) & (kShardCount - 1)];
    }

    /** Flag `sh` as holding pending lines (fast-fence bitmask). */
    void
    markPending(Shard& sh)
    {
        auto idx = static_cast<size_t>(&sh - shards_.data());
        pendingShards_.fetch_or(uint64_t{1} << idx,
                                std::memory_order_release);
    }

    void willWriteSlow(uint64_t first, uint64_t last, uint64_t e,
                       DirtyLineCache& c);
    /** Mark `ln` dirty in `sh` (lock held), snapshotting as needed. */
    void dirtyLocked(Shard& sh, uint64_t ln);
    /** Probe for `ln`; nullptr if absent. */
    Slot* findSlot(Shard& sh, uint64_t ln);
    /** Empty `s` (a slot of `sh`), shifting later members of its probe
     *  chain back so every chain stays unbroken. */
    void eraseSlot(Shard& sh, Slot* s);
    void growShard(Shard& sh);
    /** Invalidate every thread's DirtyLineCache for this sim. */
    void bumpEpoch();

    size_t crashImpl(Xorshift* rng, const CrashParams& p);

    uint8_t* base_;
    std::atomic<LineObserver*> lineObs_{nullptr};
    /** Current epoch; drawn from a process-global counter. */
    std::atomic<uint64_t> epoch_;
    /** Lines dirty or pending (volatileLines()). */
    std::atomic<size_t> volatile_{0};
    /** Bit i set => shard i may hold pending lines (fast fence). */
    std::atomic<uint64_t> pendingShards_{0};
    std::atomic<uint64_t> crashes_{0};
    std::array<Shard, kShardCount> shards_;
    static_assert(kShardCount <= 64, "pendingShards_ is one word");
};

}  // namespace cnvm::nvm

#endif  // CNVM_NVM_CACHE_SIM_H
