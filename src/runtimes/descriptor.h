/**
 * @file
 * Persistent per-thread transaction descriptor.
 *
 * Each pool thread-slot starts with a TxDescriptor followed by a log
 * area. The descriptor holds the transaction status word, the v_log
 * payload (txfunc id + argument blob) for recovery-via-resumption
 * runtimes, and the allocation intent table that makes pmalloc/pfree
 * failure-atomic. The log area holds protocol log entries (undo,
 * clobber, redo, or iDO boundary records).
 *
 * Log entries are self-validating: they carry the low bits of the
 * owning transaction's sequence number and a checksum, so no separate
 * persistent tail pointer (and no extra fence to maintain one) is
 * needed. Recovery scans from the start of the log area and stops at
 * the first entry that fails validation.
 */
#ifndef CNVM_RUNTIMES_DESCRIPTOR_H
#define CNVM_RUNTIMES_DESCRIPTOR_H

#include <cstdint>

namespace cnvm::rt {

constexpr size_t kMaxArgBytes = 3072;
constexpr size_t kMaxIntents = 256;

enum class TxStatus : uint64_t {
    idle = 0,
    ongoing = 1,     ///< uncommitted (roll back or re-execute)
    committing = 2,  ///< redo only: log complete, replay forward
};

/** One allocation action taken by the transaction. */
struct AllocIntent {
    uint64_t payloadOff;
    uint64_t payloadBytes;
    uint32_t isFree;
    uint32_t pad;
};

struct TxDescriptor {
    uint64_t status;      ///< TxStatus
    uint64_t txSeq;       ///< bumped at every begin (and re-execution)
    uint32_t fid;         ///< txfunc id (v_log)
    uint32_t argLen;      ///< v_log argument bytes
    /**
     * Checksum over (txSeq, fid, argLen, args). The status word is a
     * single atomic 8-byte write, but the rest of the begin record is
     * not: a crash can persist status=ongoing while tearing the
     * sequence number or the v_log payload, and recovery would then
     * validate *stale* log entries against an old sequence number or
     * re-execute a previous transaction's arguments. An ongoing slot
     * whose begin record fails this checksum is treated as never
     * begun — safe, because in-place stores only start after the
     * begin record's ordering fence.
     */
    uint64_t beginSum;
    uint8_t args[kMaxArgBytes];
    uint64_t intentSeq;   ///< txSeq the intent table belongs to
    uint32_t intentCount;
    uint32_t pad;
    /**
     * Checksum over (intentSeq, intentCount, table bytes). The header
     * words and the table can tear independently in a crash; recovery
     * must not trust a table whose checksum does not validate
     * (a stale or partially-persisted table would revert the wrong
     * blocks).
     */
    uint64_t intentSum;
    AllocIntent intents[kMaxIntents];
};

/**
 * Sentinel targetOff for log entries that carry bookkeeping payloads
 * (Atlas lock records, iDO register snapshots) rather than memory
 * images. Recovery must never write these back.
 */
constexpr uint64_t kMarkerOff = ~0ULL;

/** Header preceding each log entry's payload. */
struct LogEntryHeader {
    uint64_t targetOff;   ///< pool offset the payload belongs to
    uint32_t len;         ///< payload bytes (0 is invalid)
    uint32_t seqLo;       ///< low 32 bits of the owning txSeq
    /** WordSum (common/checksum.h) over the words (targetOff),
     *  (len, seqLo) and the payload, zero-padded to a word: a change
     *  to any one of them changes it. */
    uint64_t checksum;
};

static_assert(sizeof(LogEntryHeader) == 24);

constexpr size_t
logAreaOffset()
{
    return (sizeof(TxDescriptor) + 63) / 64 * 64;
}

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_DESCRIPTOR_H
