/**
 * @file
 * Shared salvage machinery: checksum primitives, the media-aware log
 * scanner, the offline pool verifier, and the fault-region refiner.
 *
 * Crash tolerance and media tolerance need different scanners. The
 * ordinary recovery scan (pre-PR-5) stopped at the first invalid log
 * entry — correct for torn tails, which are always at the *end* of a
 * log, but fatal under media faults: one flipped bit mid-log silently
 * discarded every entry after it, and a poisoned line aborted the
 * process. scanLogArea() instead:
 *
 *  - guards every header and payload read (Pool::checkRead), so a
 *    poisoned line is an observation, not a machine check;
 *  - on any non-clean stop, *resyncs*: scans forward at 8-byte
 *    alignment for a valid entry of the same transaction (seqLo).
 *    Slot logs are append-only per transaction and seqLo changes
 *    every transaction, so a valid same-seq successor is proof the
 *    damage is mid-log corruption, not a torn tail;
 *  - treats a clean-looking stop (zero length / stale seq) on a
 *    *tainted* line as corruption too — the taint set stands in for
 *    the localization real platforms get from ECC telemetry.
 *
 * The protocols decide what a damaged scan means (see DESIGN.md §13):
 * undo truncates replay, redo aborts the roll-forward, clobber
 * restores what validated but refuses to re-execute.
 */
#ifndef CNVM_RUNTIMES_SALVAGE_H
#define CNVM_RUNTIMES_SALVAGE_H

#include <cstdint>
#include <string>
#include <vector>

#include "runtimes/descriptor.h"
#include "txn/recovery_index.h"

namespace cnvm::alloc {
class PmAllocator;
}
namespace cnvm::nvm {
class Pool;
}

namespace cnvm::rt {

/** A validated log entry surfaced during recovery. */
struct ScannedEntry {
    uint64_t targetOff;
    uint32_t len;
    const uint8_t* data;
};

namespace salvage {

/**
 * @name Self-validation checksums (shared by append, scan, verify)
 *
 * Each is a WordSum (common/checksum.h) over the record's media
 * words, so a change to any one covered word changes it.
 */
/// @{
uint64_t entryChecksum(const LogEntryHeader& h, const uint8_t* data);
uint64_t beginChecksum(const TxDescriptor& d);
uint64_t intentChecksum(uint64_t seq, uint32_t count,
                        const AllocIntent* table);
/// @}

inline size_t
alignUp8(size_t n)
{
    return (n + 7) / 8 * 8;
}

/** What one scanLogArea() pass observed. */
struct ScanStats {
    uint64_t entries = 0;        ///< valid entries returned
    uint64_t payloadBytes = 0;
    /** Damaged stretches skipped: a lower bound on the entries lost,
     *  since one stretch may hold several. Nonzero when damaged(). */
    uint64_t droppedEntries = 0;
    uint64_t droppedBytes = 0;
    bool sawPoison = false;      ///< a guarded read raised a fault
    bool sawCorruption = false;  ///< proven mid-log damage
    bool tornTail = false;       ///< invalid tail, no valid successor

    /** The log cannot be trusted as a complete record. */
    bool
    damaged() const
    {
        return sawPoison || sawCorruption;
    }
};

/**
 * Scan one slot's log area for valid entries of transaction `seqLo`,
 * salvaging across damaged stretches (see file comment). `pool` may
 * be null (or have no fault model): reads are then unguarded and only
 * checksum validation applies.
 */
void scanLogArea(const nvm::Pool* pool, const uint8_t* area,
                 size_t cap, uint32_t seqLo,
                 std::vector<ScannedEntry>& out, ScanStats* stats);

/**
 * @name Read-only descriptor probes
 *
 * Shared by recovery triage, the per-slot heals and cnvm_inspect.
 * None of them writes to the pool; the guarded ones turn a poisoned
 * line into a result instead of a MediaFaultError.
 */
/// @{
/** Does the begin record hold a valid interrupted transaction
 *  (status ongoing, sane argLen, begin checksum matches)? */
bool beginLive(const TxDescriptor& d);

/** Does the alloc-intent table validate for the slot's txSeq? */
bool intentsLive(const TxDescriptor& d);

/**
 * Why the begin record (status through the v_log args) cannot be
 * trusted — "descriptor poisoned" or "descriptor tainted (bit
 * flip)" — or null when it reads back clean. The intent table is not
 * vetted here: it carries its own checksum and its own guarded probe
 * (intentsGuarded) with better salvage semantics.
 */
const char* beginDamage(const nvm::Pool& pool, const TxDescriptor& d);

/**
 * intentsLive with media awareness: 1 = live table, 0 = none, -1 =
 * the table is poisoned, or looks live but fails its checksum on a
 * tainted line (recovery records it as lost).
 */
int intentsGuarded(const nvm::Pool& pool, const TxDescriptor& d);

/**
 * Triage one slot: classify it from its on-media descriptor and
 * append to `holds` the heap ranges its live intent table pins until
 * the slot heals. The one slot classifier: RuntimeBase's
 * recoveryTriage() and `cnvm_inspect verify` both call it.
 */
txn::SlotClass triageSlot(const nvm::Pool& pool, unsigned tid,
                          std::vector<txn::HoldRange>& holds);
/// @}

/** Result of an offline pool walk (cnvm_inspect verify). */
struct VerifyResult {
    /** Integrity violations (checksum failures, bad offsets). */
    std::vector<std::string> problems;
    /** Benign observations (torn tails, live intent tables). */
    std::vector<std::string> notes;

    bool ok() const { return problems.empty(); }
};

/**
 * Walk an open pool read-only: header bounds, per-slot descriptor and
 * log checksums (via scanLogArea), allocator header (against the
 * layout the pool geometry fixes), quarantine table, heap frontier
 * (its check, and no bitmap bit set at or past its end), and the block
 * headers of allocated extents. Never mutates the pool and never
 * constructs a PmAllocator (which would heal a damaged header in
 * place — exactly what we want to report).
 */
VerifyResult verifyPool(nvm::Pool& pool);

}  // namespace salvage

/**
 * Refine the pool's coarse fault-region map with layouts only the
 * runtime layer knows: the descriptor/log split of every slot and the
 * allocator-metadata vs. user-data split of the heap. No-op when the
 * pool has no fault model.
 */
void defineFaultRegions(nvm::Pool& pool, const alloc::PmAllocator& heap);

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_SALVAGE_H
