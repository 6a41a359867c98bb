/**
 * @file
 * Software model of the volatile write-back cache in front of NVM.
 *
 * The paper's machine model (Section 2.1): stores land in volatile
 * caches; a line only becomes durable once flushed (clwb) and ordered
 * (sfence) by the core that flushed it, or when the hardware happens
 * to evict it. On power loss, unflushed lines are lost and writes may
 * persist out of program order.
 *
 * This class reproduces exactly that hazard in software so crash tests
 * are meaningful on a DRAM host:
 *
 *  - willWrite() snapshots a line's last-durable content the first time
 *    it is dirtied;
 *  - flush()/flushLines() move lines to the "pending" state (clwb
 *    issued) and list them in the calling persistence domain;
 *  - fence() makes the calling domain's pending lines durable
 *    (snapshots retired), as sfence orders only the issuing core's
 *    clwbs;
 *  - crash() tears the image: every still-volatile 8-byte word either
 *    keeps its new value (it was evicted in time) or reverts to the
 *    snapshot (it was lost), chosen pseudo-randomly.
 *
 * Persistence is atomic at 8-byte granularity, matching x86 NVM
 * guarantees, so crash() tears *within* cache lines too.
 *
 * Persistence domains. Each OS thread is a domain, and sim::Scope
 * makes each logical thread of sim::Executor one (see PersistDomain in
 * hooks.h). A domain's state lives here, registered on first use: the
 * lines it flushed since its last fence, its dirty-line cache, and
 * its write, dirtied-line and retired-line counts. Only the domain
 * writes them; the counts are single-writer relaxed atomics, summed by
 * writes() and volatileLines(). The state outlives its thread: lines a
 * domain left pending stay pending until some domain flushes and
 * fences them again, or a crash tears them.
 *
 * The line table is shared, because a line has one state whichever
 * domain dirtied it:
 *
 *  - Power-of-two shards keyed by line bits (16-line blocks
 *    round-robined over the shards), each an open-addressing flat table
 *    of line -> {state, snapshot} slots under its own mutex. It holds
 *    only dirty and pending lines: a fence erases the slot of every
 *    line it retires, by backward-shift deletion, so probe chains stay
 *    valid without tombstones.
 *  - The table is sized to the lines in flight: a shard grows at 70%
 *    load, and a fence that leaves it at 1/8 load or less shrinks it
 *    back towards its initial 64 slots, so one burst (a 1 MiB zeroing
 *    under a single fence) does not tax every later probe and crash.
 *  - Each dirtying of a line gives its slot a new sequence number. A
 *    domain lists (line, sequence) when it flushes, and its fence
 *    retires the line only if it is still pending with that sequence:
 *    the domain flushed it since it was last dirtied. A line flushed by
 *    two domains retires at the first of their fences.
 *
 * Fast path: repeated stores to an already-dirty line skip the shard
 * lock entirely. willWrite() first probes the calling domain's
 * dirty-line cache. The invariant is that a way validates only while
 * its line is still dirty in the table:
 *
 *  - a domain clears its own way for every line it flushes;
 *  - each slot names the domain that may cache it (or "several"); a
 *    flush that moves a line cached by another domain out of the dirty
 *    state bumps the sim's generation, which every way also checks;
 *  - crash and observer install bump the generation too.
 *
 * A fence never invalidates a way: it retires only pending lines, and
 * no way validates a pending line. Single-domain traffic never bumps
 * the generation, and a store, flush or fence does no locked
 * read-modify-write on a line another domain writes.
 *
 * With a LineObserver installed the fast path is disabled (the install
 * bumps the generation and blocks cache refills), so the observer sees
 * the full per-line event feed, including re-dirties of already-dirty
 * lines.
 */
#ifndef CNVM_NVM_CACHE_SIM_H
#define CNVM_NVM_CACHE_SIM_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
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
 * shards have been processed. Every callback runs on the thread that
 * caused it. Implementations must not call back into the CacheSim,
 * and observers should be installed while the sim is quiescent (no
 * concurrent stores).
 */
class LineObserver {
 public:
    virtual ~LineObserver() = default;
    /** Line `line` became (or stayed) dirty via a store. */
    virtual void lineDirtied(uint64_t line) = 0;
    /** Line `line` moved dirty -> pending via a clwb. */
    virtual void lineFlushed(uint64_t line) = 0;
    /**
     * An sfence retired the calling domain's pending lines: those it
     * flushed since they were last dirtied. Lines other domains
     * flushed stay pending. With one domain that is every pending
     * line.
     */
    virtual void fenceRetired() = 0;
    /** All tracking dropped (crash or clean shutdown). */
    virtual void trackingReset() = 0;
};

class CacheSim {
    static constexpr size_t kShardCount = 64;       // power of two
    static constexpr uint64_t kShardBlockBits = 4;  // 16 lines/shard hop
    static constexpr size_t kWays = 1024;           // 16 KiB per domain

 public:
    /** A line listed by the domain that flushed it. */
    struct PendingLine {
        uint64_t line;
        uint32_t seq;  ///< the slot's sequence when it was flushed
    };

    /**
     * One persistence domain's state in this sim. Only the owning
     * domain touches it, except that writes() and volatileLines() read
     * the counters.
     */
    struct alignas(64) Domain {
        std::atomic<uint64_t> writes{0};   ///< Pool::write calls
        std::atomic<uint64_t> dirtied{0};  ///< lines it added to the table
        std::atomic<uint64_t> retired{0};  ///< lines its fences retired
        uint64_t key = 0;       ///< PersistDomain::id() of the owner
        uint8_t cacheTag = 0;   ///< Slot::cacher value naming it
        uint16_t flushTag = 0;  ///< Slot::flusher value naming it
        /** Bit i set => pending[i] is non-empty. */
        uint64_t pendingShards = 0;
        /** Lines flushed since its last fence, by shard. */
        std::array<std::vector<PendingLine>, kShardCount> pending;

        /** Direct-mapped cache of lines known dirty in the table. */
        struct Way {
            uint64_t line1 = 0;  ///< line number + 1; 0 = empty
            uint64_t gen = 0;    ///< sim generation at insert
        };
        std::array<Way, kWays> ways;

        /** Count one Pool::write (single writer: plain load + store). */
        void
        countWrite()
        {
            writes.store(writes.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
        }
    };

    explicit CacheSim(uint8_t* base);

    CacheSim(const CacheSim&) = delete;
    CacheSim& operator=(const CacheSim&) = delete;

    /** The calling thread's persistence domain in this sim. */
    Domain&
    domain()
    {
        PersistDomain& k = persistDomain();
        if (k.simId_ == id_) [[likely]]
            return *static_cast<Domain*>(k.state_);
        return domainSlow(k);
    }

    /** Must be called by domain `d` immediately before mutating
     *  [off, off+len). */
    void
    willWrite(Domain& d, uint64_t off, size_t len)
    {
        if (len == 0)
            return;
        uint64_t first = off / kCacheLine;
        uint64_t last = (off + len - 1) / kCacheLine;
        uint64_t g = gen_.load(std::memory_order_acquire);
        for (uint64_t ln = first; ln <= last; ln++) {
            const Domain::Way& w = d.ways[ln & (kWays - 1)];
            if (w.line1 != ln + 1 || w.gen != g)
                return willWriteSlow(d, first, last, g);
        }
        // Every covered line is known dirty: no state can change and
        // no snapshot is needed.
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

    /** sfence: the calling domain's pending lines become durable.
     *  Counts + observes. */
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

    /** Pool::write calls over every domain (exact when quiescent). */
    uint64_t writes() const;

    /** Lines currently dirty or pending: a sum over the domains. Exact
     *  when quiescent; never negative while traffic runs. */
    size_t volatileLines() const;

    /** Slots allocated over all shards: the sizing rule's witness
     *  (64 per shard when nothing has piled up). */
    size_t slotCapacity() const;

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

    /** Slot::cacher / Slot::flusher value for "several or unknown". */
    static constexpr uint8_t kManyCachers = 0xff;
    static constexpr uint16_t kAnyFlusher = 0xffff;

    struct Slot {
        /** Line number + 1; 0 = empty. First member so probe chains
         *  touch only the slot header, not the snapshot bytes. */
        uint64_t key = 0;
        /** Shard sequence of the line's last dirtying. */
        uint32_t seq = 0;
        /** Domain::flushTag of the last domain to list it pending. */
        uint16_t flusher = 0;
        LineState state = kEmpty;
        /** Domain::cacheTag of the domain whose cache may hold it
         *  (0 = none, kManyCachers = several). */
        uint8_t cacher = 0;
        std::array<uint8_t, kCacheLine> snapshot;
    };

    struct alignas(64) Shard {
        mutable std::mutex mu;
        /** Power-of-two open-addressing table, sized to the lines in
         *  flight (see resizeShard's callers). */
        std::vector<Slot> slots;
        /** Slots with key != 0 (load-factor accounting). */
        size_t used = 0;
        /** Dirtyings so far; never reset, so a stale PendingLine never
         *  matches a later dirtying of its line. */
        uint32_t seq = 0;
    };

    static constexpr size_t kInitialSlots = 64;

    Shard&
    shardOf(uint64_t line)
    {
        return shards_[(line >> kShardBlockBits) & (kShardCount - 1)];
    }

    Domain& domainSlow(PersistDomain& k);
    void willWriteSlow(Domain& d, uint64_t first, uint64_t last,
                       uint64_t g);
    /** Mark `ln` dirty in `sh` (lock held), snapshotting as needed. */
    Slot& dirtyLocked(Domain& d, Shard& sh, uint64_t ln);
    /** clwb of `ln` by `d` (lock held). Sets `cross` if another
     *  domain's cache may hold the line. */
    void flushLocked(Domain& d, Shard& sh, uint64_t ln,
                     LineObserver* obs, bool& cross);
    /** Probe for `ln`; nullptr if absent. */
    Slot* findSlot(Shard& sh, uint64_t ln);
    /** Empty `s` (a slot of `sh`), shifting later members of its probe
     *  chain back so every chain stays unbroken. */
    void eraseSlot(Shard& sh, Slot* s);
    /** Rehash `sh` into `cap` slots (a power of two). */
    void resizeShard(Shard& sh, size_t cap);
    /** Invalidate every domain's dirty-line cache for this sim. */
    void
    bumpGen()
    {
        gen_.fetch_add(1, std::memory_order_release);
    }

    size_t crashImpl(Xorshift* rng, const CrashParams& p);

    uint8_t* base_;
    /** Never reused across sims (PersistDomain's cache key). */
    const uint64_t id_;
    std::atomic<LineObserver*> lineObs_{nullptr};
    /** Checked by every cache way: bumped by a cross-domain flush, a
     *  crash or an observer install. Read-mostly. */
    std::atomic<uint64_t> gen_{1};
    std::atomic<uint64_t> crashes_{0};
    /** Lines crashes dropped from the table (volatileLines()). */
    std::atomic<uint64_t> dropped_{0};
    mutable std::mutex domainsMu_;
    std::vector<std::unique_ptr<Domain>> domains_;
    std::array<Shard, kShardCount> shards_;
};

}  // namespace cnvm::nvm

#endif  // CNVM_NVM_CACHE_SIM_H
