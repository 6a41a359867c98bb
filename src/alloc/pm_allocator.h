/**
 * @file
 * Failure-atomic persistent heap allocator (the pmalloc substrate).
 *
 * Mirrors the structure of PMDK's allocator, which Clobber-NVM builds
 * on: allocations are *reserved* volatilely during a transaction and only
 * become persistent at commit, driven by the owning runtime's intent log
 * (redo). Frees are deferred to commit. Consequences:
 *
 *  - a crash mid-transaction leaks nothing: unreserved state is exactly
 *    what the persistent bitmap describes;
 *  - a crash mid-commit is repaired from the runtime's persistent intent
 *    log by idempotent bit writes (revertBits);
 *  - Clobber-NVM's re-execution path simply re-reserves from the
 *    recovery session's incremental rebuild; blocks its roll-back
 *    reverted re-enter the free map once their slot's holds go.
 *
 * The volatile free map is exact for the prefix of the bitmap the
 * scan has read: every writer of bitmap bits (persistFree, revertBits,
 * quarantine) and every hold change re-syncs its range under the lock.
 * So a restart scans the bitmap once. The scan a constructor ran (or
 * armed) carries into the recovery session, which only finishes it;
 * the session starts over only when the pool took a crash or a media
 * fault after the map was built (nvm::Pool::upsets).
 *
 * Persistent layout inside the pool's heap region (pool version 2):
 *
 *   [ AllocHeader | quarantine table | bitmap (1 bit / 16-byte
 *     granule) | data ]
 *
 * Every block is preceded by a 16-byte header recording its payload
 * size (needed by free and by bit reverts).
 *
 * The quarantine table (PR 5) records heap ranges whose media went
 * bad — a poisoned bitmap chunk, a block header that fails its
 * checksum during salvage. Quarantined ranges have their bitmap bits
 * forced allocated and the persistent table keeps rebuild() from ever
 * returning them to the free map, so a bad cell can never be handed
 * out again.
 */
#ifndef CNVM_ALLOC_PM_ALLOCATOR_H
#define CNVM_ALLOC_PM_ALLOCATOR_H

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "nvm/pool.h"

namespace cnvm::alloc {

constexpr uint64_t kGranule = 16;

/** Persistent header at the start of the heap region. */
struct AllocHeader {
    uint64_t magic;
    uint64_t bitmapOff;    ///< pool offset of the bitmap
    uint64_t bitmapBytes;
    uint64_t dataOff;      ///< pool offset of the first granule
    uint64_t dataBytes;
    uint64_t quarOff;      ///< pool offset of the quarantine table
};

/** Per-block persistent header (16 bytes, precedes the payload). */
struct BlockHeader {
    uint64_t payloadBytes;
    uint64_t check;        ///< payloadBytes ^ kBlockMagic
};

/** Why a heap range was quarantined. */
enum QuarantineReason : uint32_t {
    kQuarPoisonedBitmap = 1,  ///< its bitmap chunk is unreadable
    kQuarCorruptHeader = 2,   ///< block header failed its checksum
    kQuarPoisonedData = 3,    ///< data lines raised media faults
};

/** One quarantined heap range (absolute pool offsets). */
struct QuarantineEntry {
    uint64_t off;
    uint64_t bytes;
    uint32_t reason;       ///< QuarantineReason
    uint32_t pad;
};

/** Persistent, self-validating quarantine table. */
struct QuarantineTable {
    static constexpr uint32_t kCapacity = 64;
    uint32_t count;
    uint32_t pad;
    uint64_t checksum;     ///< quarantineChecksum(count, entries)
    QuarantineEntry entries[kCapacity];
};

/** fnv1a over the live prefix of the table (0 maps to 1). */
uint64_t quarantineChecksum(uint32_t count,
                            const QuarantineEntry* entries);

/**
 * A block header failed its checksum (thrown by payloadSize instead of
 * aborting the process: recovery quarantines the block and goes on).
 */
class CorruptBlockError : public FatalError {
 public:
    CorruptBlockError(uint64_t payloadOff, const std::string& what)
        : FatalError(what), payloadOff_(payloadOff) {}

    uint64_t payloadOff() const { return payloadOff_; }

 private:
    uint64_t payloadOff_;
};

/** What one rebuild() pass salvaged. */
struct RebuildStats {
    uint64_t quarantinedBlocks = 0;   ///< newly quarantined ranges
    uint64_t quarantinedBytes = 0;
    uint64_t poisonedChunks = 0;      ///< unreadable bitmap chunks
    bool quarantineTableReset = false;///< table itself was corrupt
    bool headerHealed = false;        ///< AllocHeader recomputed
};

class PmAllocator {
 public:
    static constexpr uint64_t kMagic = 0xA110CA7EDB17ull;
    static constexpr uint64_t kBlockMagic = 0xB10CB10CB10CB10Cull;

    /**
     * Attach to (formatting if necessary) the pool's heap region and
     * scan its bitmap. With `deferRebuild` the constructor only arms
     * the scan (instant restart: reserve() pulls scan work on demand,
     * and the recovery session's finishScan() completes it).
     */
    explicit PmAllocator(nvm::Pool& pool, bool deferRebuild = false);

    PmAllocator(const PmAllocator&) = delete;
    PmAllocator& operator=(const PmAllocator&) = delete;

    /**
     * Volatile-reserve a block with `payload` usable bytes.
     * @return pool offset of the payload (16-byte aligned).
     */
    uint64_t reserve(size_t payload);

    /** Roll back a reservation that never committed. */
    void releaseReservation(uint64_t payloadOff);

    /**
     * Payload size recorded in the block header.
     * @throws CorruptBlockError if the header fails its checksum;
     *         nvm::MediaFaultError if its line is poisoned.
     */
    size_t payloadSize(uint64_t payloadOff) const;

    /**
     * Commit a reservation: set its bitmap bits and flush them (plus
     * the block header). The caller issues the ordering fence.
     */
    void persistAllocate(uint64_t payloadOff);

    /**
     * Commit a deferred free: clear bitmap bits, flush, and return the
     * space to the volatile free map (unless a hold pins it). Caller
     * issues the fence.
     */
    void persistFree(uint64_t payloadOff);

    /**
     * persistFree with the payload size supplied by the caller's
     * intent table — trusts nothing on the media, so a block whose
     * header line went bad can still be freed at commit.
     */
    void persistFree(uint64_t payloadOff, size_t payloadBytes);

    /**
     * Recovery: force the bitmap bits of a block to `allocated`.
     * Idempotent; used when replaying/reverting intent logs. The size
     * comes from the caller's intent table — the block header itself
     * may have been torn by the crash.
     */
    void revertBits(uint64_t payloadOff, size_t payloadBytes,
                    bool allocated);

    /**
     * Rebuild the volatile free map from scratch, as a fresh process
     * would: discard reservations and holds, then run the bitmap scan
     * from its start to its end. Bitmap chunks that are poisoned or
     * tainted are quarantined (the granules they administer are forced
     * allocated, persistently) rather than trusted; already-quarantined
     * ranges never re-enter the free map. @return what this pass
     * salvaged, with whatever earlier pulls of the scan found.
     */
    RebuildStats rebuild();

    /**
     * Arm an incremental (lazy) rebuild instead of scanning the whole
     * bitmap: discard all volatile state (fresh-process semantics),
     * heal the header and quarantine table — the O(1) prefix of
     * rebuild() — and leave the free map empty. reserve() then pulls
     * chunks of the bitmap scan on demand; finishScan() completes it.
     * Bounded by metadata size, not pool size.
     */
    void beginLazyRebuild();

    /**
     * Start a recovery session over this heap. The free map and the
     * scan's cursor carry over, so the session finishes the scan the
     * constructor ran or armed. Only when the pool took a crash or a
     * media fault after the map was built (or an earlier session
     * ended before releasing its holds) is every piece of volatile
     * state discarded and the scan re-armed (beginLazyRebuild).
     */
    void beginSession();

    /**
     * Run the bitmap scan from its cursor to the end: the recovery
     * session's final reconcile (Runtime::healHeap), no work at all
     * when the scan already ran in full. Safe while foreground
     * transactions are in flight: their live reservations, and any
     * holds not yet released, stay masked. If the pool took a crash
     * or a media fault since the map was built, the map is rebuilt
     * from the bitmap's start first. @return the salvage the scan
     * found since it was armed.
     */
    RebuildStats finishScan();

    /**
     * Pin [off, off+bytes) out of the free map until releaseHolds(tid)
     * — lazy recovery's guard for blocks whose allocation bits may
     * have been torn by the crash (the owning slot's intent table is
     * the truth until that slot heals).
     */
    void addHold(unsigned tid, uint64_t off, uint64_t bytes);

    /** Drop every hold owned by `tid` (its slot healed): the clear
     *  bits of the released ranges the scan has passed enter the
     *  free map. */
    void releaseHolds(unsigned tid);

    /** Outstanding hold ranges (diagnostics / tests). */
    size_t holdCount() const;

    /**
     * Persistently quarantine [payloadOff-16, ...) covering `bytes`
     * of payload: record a table entry and force the bitmap bits
     * allocated. Idempotent for an already-covered range.
     */
    void quarantine(uint64_t blockOff, uint64_t bytes,
                    QuarantineReason reason);

    /** Is any byte of [off, off+n) inside a quarantined range? */
    bool isQuarantined(uint64_t off, uint64_t n) const;
    uint32_t quarantineCount() const;
    uint64_t quarantinedBytes() const;

    /** Does any free extent overlap a quarantined range? (Torture
     *  invariant: must always be false.) */
    bool quarantineViolation() const;

    /** Total bytes in free extents (diagnostics / tests). */
    size_t freeBytes() const;

    /** Number of free extents (fragmentation diagnostics). */
    size_t freeExtents() const;

    /** @name Layout accessors (fault-region map, offline verify) */
    /// @{
    uint64_t bitmapOff() const { return hdr().bitmapOff; }
    uint64_t bitmapBytes() const { return hdr().bitmapBytes; }
    uint64_t dataOff() const { return hdr().dataOff; }
    uint64_t dataBytes() const { return hdr().dataBytes; }
    uint64_t quarTableOff() const { return hdr().quarOff; }
    /// @}

    nvm::Pool& pool() { return pool_; }

 private:
    const AllocHeader& hdr() const;
    AllocHeader expectedHeader() const;
    QuarantineTable* quarTable() const;
    void quarantineLocked(uint64_t off, uint64_t bytes,
                          QuarantineReason reason);
    bool isQuarantinedLocked(uint64_t off, uint64_t n) const;
    uint64_t blockOff(uint64_t payloadOff) const
    {
        return payloadOff - sizeof(BlockHeader);
    }
    uint64_t blockGranules(uint64_t payloadOff) const;
    void setBits(uint64_t blockOff, uint64_t granules, bool value,
                 bool flushBits);
    void dropBySizeLocked(uint64_t off, uint64_t len);
    /** Add a run no extent overlaps, coalescing with its neighbours. */
    void insertFreeExtentLocked(uint64_t off, uint64_t len);
    /** insertFreeExtentLocked minus hold/reservation overlaps. */
    void insertFreeRunMaskedLocked(uint64_t off, uint64_t len);
    /** Remove [off, off+len) from the free map, splitting the extents
     *  it cuts. */
    void carveLocked(uint64_t off, uint64_t len);
    /** Make the map mirror the bitmap over the part of [off, off+len)
     *  the scan has passed: its clear runs minus holds and live
     *  reservations are free, the rest is not. */
    void syncRangeLocked(uint64_t off, uint64_t len);
    /** Has the pool crashed or taken a media fault since armScan? */
    bool staleLocked() const { return pool_.upsets() != builtAt_; }
    uint64_t reserveLocked(uint64_t need);
    void healMetaLocked(RebuildStats* st);
    /** Empty the free map, heal the metadata and point the
     *  incremental scan at the bitmap's first chunk. */
    void armScanLocked(bool keepSession);
    /** Scan up to `chunks` 64-byte bitmap chunks from the cursor into
     *  the free map (the allocator's one bitmap scan). */
    void lazyStepLocked(uint64_t chunks);

    /** A heap range pinned until its owning slot heals. */
    struct Hold {
        unsigned tid;
        uint64_t off;
        uint64_t bytes;
        /** A committed transaction freed the block since the crash:
         *  the slot's heal must not force it allocated again. */
        bool freed = false;
    };

    nvm::Pool& pool_;
    mutable std::mutex mu_;
    /** offset -> length, coalesced free extents (absolute pool offsets) */
    std::map<uint64_t, uint64_t> free_;
    /** length -> offset index for best-fit */
    std::multimap<uint64_t, uint64_t> bySize_;
    /** block offset -> total bytes of live volatile reservations (bits
     *  still clear on media; a concurrent rebuild must not free them) */
    std::map<uint64_t, uint64_t> reserved_;
    std::vector<Hold> holds_;
    /** @name The bitmap scan (run eagerly, or pulled on demand) */
    /// @{
    bool lazyScanDone_ = false;
    uint64_t lazyCursor_ = 0;     ///< bitmap bytes consumed so far
    uint64_t lazyRunStartG_ = 0;  ///< open free-run start granule
    bool lazyInRun_ = false;
    RebuildStats lazyStats_{};    ///< salvage found since armed
    uint64_t builtAt_ = 0;        ///< pool_.upsets() when armed
    /// @}
};

}  // namespace cnvm::alloc

#endif  // CNVM_ALLOC_PM_ALLOCATOR_H
