/**
 * @file
 * Persistent memory pool: a file-backed (or anonymous) mapped region
 * with a fixed layout, interposed writes, and simulated flush/fence.
 *
 * Layout:
 *
 *   [ header | per-thread runtime slots | heap ]
 *
 * The header records the root object offset; the per-thread slots hold
 * the runtimes' persistent logs (v_log, undo/clobber/redo logs, alloc
 * intents); the heap is managed by alloc::PmAllocator.
 *
 * Every mutation of pool memory must go through write()/writeAt() so the
 * cache model can track dirty lines (this is what the paper's second
 * compiler pass — the access-interposition callbacks — does for real
 * programs). flush()/fence() model clwb/sfence; persist() is the common
 * pair.
 *
 * The pool equivalent of the paper's pointer-swizzling callbacks is
 * PPtr<T> (see pptr.h): persistent pointers are stored as offsets and
 * resolved against the currently mapped base, so a pool can be remapped
 * at any address after a restart.
 */
#ifndef CNVM_NVM_POOL_H
#define CNVM_NVM_POOL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/error.h"
#include "common/rand.h"
#include "nvm/cache_sim.h"
#include "nvm/fault_model.h"

namespace cnvm::nvm {

/**
 * Thrown by Pool::write when an armed write trap fires: the simulated
 * power failure happens *instead of* the trapped write. Crash tests
 * catch this at the top of the interrupted operation, tear the image
 * with simulateCrash(), and then run recovery.
 */
struct CrashInjected {};

/** Typed failure opening an existing pool file (Pool::open). */
class PoolOpenError : public FatalError {
 public:
    enum class Reason {
        io,            ///< open/stat/mmap failed
        truncated,     ///< file too small to hold a header
        badMagic,      ///< not a pool file
        badVersion,    ///< layout version mismatch
        sizeMismatch,  ///< header size != file size (wrong-size reopen)
        corruptHeader, ///< header offsets out of bounds / inconsistent
    };

    PoolOpenError(Reason reason, const std::string& what)
        : FatalError(what), reason_(reason) {}

    Reason reason() const { return reason_; }

 private:
    Reason reason_;
};

struct PoolConfig {
    std::string path;               ///< empty => anonymous mapping
    size_t size = 64ULL << 20;
    unsigned maxThreads = 32;       ///< number of runtime log slots
    size_t slotBytes = 256ULL << 10;  ///< bytes per runtime log slot
};

/** On-media pool header (lives at offset 0). */
struct PoolHeader {
    uint64_t magic;
    uint64_t version;
    uint64_t size;
    uint64_t rootOff;       ///< offset of the application root object
    uint64_t auxOff;        ///< runtime-private global area (e.g. Atlas)
    uint64_t metaOff;       ///< first runtime slot
    uint64_t slotBytes;
    uint64_t heapOff;
    uint64_t heapSize;
    uint32_t maxThreads;
    uint32_t runtimeId;     ///< which runtime formatted the slots
};

class Pool {
 public:
    static constexpr uint64_t kMagic = 0xC10BBE12A112F00DULL;
    /**
     * v2: heap region gained the persistent quarantine table.
     * v3: every record checksum is a WordSum (common/checksum.h), not
     * an xor of per-field fnv1a sums; a v2 pool is refused, since its
     * sums would read as damage.
     */
    static constexpr uint64_t kVersion = 3;

    /** Create and format a new pool (truncates an existing file). */
    static std::unique_ptr<Pool> create(const PoolConfig& cfg);

    /** Map an existing pool file. */
    static std::unique_ptr<Pool> open(const std::string& path);

    ~Pool();

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    uint8_t* base() const { return base_; }
    size_t size() const { return header().size; }
    const PoolHeader& header() const;

    bool
    contains(const void* p) const
    {
        auto* b = reinterpret_cast<const uint8_t*>(p);
        return b >= base_ && b < base_ + mappedSize_;
    }

    uint64_t
    offsetOf(const void* p) const
    {
        return static_cast<uint64_t>(
            reinterpret_cast<const uint8_t*>(p) - base_);
    }

    void* at(uint64_t off) const { return base_ + off; }

    /** @name Interposed persistence operations */
    /// @{
    void write(void* dst, const void* src, size_t n);
    void writeAt(uint64_t off, const void* src, size_t n);
    /** Write an 8-byte value (the common pointer/field case). */
    void write64(void* dst, uint64_t v);
    void flush(const void* addr, size_t n);
    /**
     * Batched clwb of `n` arbitrary cache-line numbers (commit-time
     * write-back of a dirty-line set). Sorts `lines` in place and
     * coalesces adjacent lines into single bursts; see
     * CacheSim::flushLines.
     */
    void flushLines(uint64_t* lines, size_t n);
    void fence();
    /** flush + fence. */
    void persist(const void* addr, size_t n);
    /// @}

    /** Root object management (persisted immediately). */
    uint64_t root() const { return header().rootOff; }
    void setRoot(uint64_t off);

    /** Runtime-private global area (persisted immediately). */
    uint64_t aux() const { return header().auxOff; }
    void setAux(uint64_t off);

    /** Runtime id recorded in the header. */
    uint32_t runtimeId() const { return header().runtimeId; }

    /** Per-thread runtime slot `tid` (tid < maxThreads). */
    void* slot(unsigned tid) const;
    size_t slotBytes() const { return header().slotBytes; }
    unsigned maxThreads() const { return header().maxThreads; }

    uint64_t heapOff() const { return header().heapOff; }
    size_t heapSize() const { return header().heapSize; }

    CacheSim& cache() { return *cache_; }

    /**
     * @name Media-fault layer
     *
     * Attaching a FaultModel arms guarded reads (checkRead) and makes
     * simulateCrash* run one seeded injection round after the tear.
     * When no model is attached every hook is a null-pointer check.
     * Pool::create/open attach one automatically when the
     * CNVM_FAULT_* environment knobs request faults.
     */
    /// @{
    /** Install `fm` (nullptr detaches) and set the coarse region map
     *  (header / slot area / heap). rt::defineFaultRegions refines. */
    void setFaultModel(std::unique_ptr<FaultModel> fm);
    FaultModel* faults() const { return faults_.get(); }

    /** Guarded read of [p, p+n): raises MediaFaultError on poisoned
     *  lines (after internal transient retries). Recovery/salvage
     *  paths call this before trusting pool memory. */
    void
    checkRead(const void* p, size_t n) const
    {
        if (faults_ != nullptr)
            faults_->onRead(offsetOf(p), n);
    }

    /** Was any line of [p, p+n) bit-flipped and not rewritten? */
    bool
    isTainted(const void* p, size_t n) const
    {
        return faults_ != nullptr && faults_->tainted(offsetOf(p), n);
    }
    /// @}

    /**
     * Inject a power failure: tear all volatile lines (see CacheSim).
     * The pool stays mapped; callers must re-run recovery afterwards.
     * When a FaultModel is attached, one injection round follows the
     * tear (media faults strike persisted lines at crash time).
     * @return reverted word count.
     */
    size_t simulateCrash(uint64_t seed);

    /** simulateCrash with explicit torn-write survival knobs. */
    size_t simulateCrash(uint64_t seed, const CrashParams& params);

    /** Worst-case power failure: every volatile word reverts
     *  (CacheSim::crashAllLost), then fault injection as above. */
    size_t simulateCrashAllLost();

    /**
     * Crashes and media faults this pool has taken: every simulated
     * power loss plus every fault any attached FaultModel placed. It
     * only grows, so volatile state built over the pool (the
     * allocator's free map) is stale exactly when it has moved since.
     */
    uint64_t
    upsets() const
    {
        return cache_->crashes() + retiredFaults_ +
               (faults_ != nullptr ? faults_->injected() : 0);
    }

    /**
     * Arm a trap that throws CrashInjected instead of performing the
     * `countdown`-th subsequent write (1 = the very next write).
     * 0 disarms. Sweeping the countdown lets tests crash a transaction
     * at every possible point.
     */
    void armWriteTrap(uint64_t countdown)
    {
        trapCountdown_.store(countdown, std::memory_order_relaxed);
    }

    /**
     * Writes performed since construction (to size trap sweeps): a sum
     * of per-domain counts that each store bumps without a locked
     * read-modify-write. Exact while no other thread writes.
     */
    uint64_t writeCount() const { return cache_->writes(); }

    /** Ambient pool used by PPtr<T>. */
    static Pool* current();
    static void setCurrent(Pool* p);

 private:
    Pool() = default;

    PoolHeader* mutableHeader() const;

    // Atomic: Pool::write runs concurrently in the CacheSim stress
    // tests; the trap carries no ordering, relaxed is enough.
    std::atomic<uint64_t> trapCountdown_{0};
    uint8_t* base_ = nullptr;
    size_t mappedSize_ = 0;
    int fd_ = -1;
    std::unique_ptr<CacheSim> cache_;
    std::unique_ptr<FaultModel> faults_;
    /** Faults placed by models setFaultModel has since replaced. */
    uint64_t retiredFaults_ = 0;
    bool wasCurrent_ = false;
};

}  // namespace cnvm::nvm

#endif  // CNVM_NVM_POOL_H
