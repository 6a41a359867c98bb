/**
 * @file
 * RecoveryIndex: the output of a triage pass — the bounded "what needs
 * healing" catalogue every restart is built on (DESIGN.md §17).
 *
 * Recovery runs in two steps, whether the restart is full or lazy:
 *
 *   triage  — a bounded pass over the per-slot TxDescriptors (and the
 *             allocator/quarantine metadata headers) that only
 *             *classifies* each slot, producing this index. It writes
 *             nothing a re-run would not rewrite identically, so the
 *             index is "persistent" in the only sense that matters
 *             after a crash: it rebuilds bit-for-bit from the same
 *             on-media descriptors, no matter how many times triage
 *             itself is interrupted.
 *   heal    — the salvage logic, one index entry at a time
 *             (Runtime::healSlot), then one heap reconcile
 *             (Runtime::healHeap). A full restart heals every entry
 *             inline before returning; a lazy one heals on first
 *             touch or from a background salvage thread
 *             (txn::LazyRecovery).
 *
 * Hold ranges: a slot that crashed with a live alloc-intent table may
 * own heap blocks whose allocation bits never retired to media. Until
 * that slot heals, those ranges must not re-enter the allocator's free
 * map — triage reads them out of the (checksummed) intent table and
 * the recovery session registers them as holds with the allocator.
 */
#ifndef CNVM_TXN_RECOVERY_INDEX_H
#define CNVM_TXN_RECOVERY_INDEX_H

#include <cstdint>
#include <vector>

namespace cnvm::txn {

/** How Engine::recover() brings a pool back. */
enum class RecoveryMode : uint8_t {
    full,  ///< heal everything inline before admitting
    lazy,  ///< triage, admit immediately, heal on touch/in background
};

const char* recoveryModeName(RecoveryMode m);

/** Triage classification of one slot's on-media descriptor state. */
enum class SlotClass : uint8_t {
    clean = 0,    ///< idle, no live intents: nothing to heal
    ongoing,      ///< persistent begin record: tx was mid-flight
    committing,   ///< redo: commit record sealed, replay owed
    idleIntents,  ///< idle but a live alloc-intent table to settle
    damaged,      ///< descriptor unreadable/tainted: salvage owed
};

/** One dirty slot awaiting a heal pass. */
struct IndexEntry {
    unsigned tid = 0;
    SlotClass cls = SlotClass::clean;
};

/** A heap range pinned out of the free map until its slot heals. */
struct HoldRange {
    unsigned tid = 0;    ///< owning slot (released on its heal)
    uint64_t off = 0;    ///< block offset (header included)
    uint64_t bytes = 0;  ///< granule-aligned block size
};

/** Result of Runtime::recoveryTriage(). */
struct RecoveryIndex {
    /** Dirty slots, ascending tid. Clean slots are omitted. */
    std::vector<IndexEntry> entries;
    /** Heap ranges to pin until the owning slot heals. */
    std::vector<HoldRange> holds;
};

}  // namespace cnvm::txn

#endif  // CNVM_TXN_RECOVERY_INDEX_H
