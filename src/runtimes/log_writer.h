/**
 * @file
 * Pluggable log-append engines ("log writers").
 *
 * Every protocol log entry in the repository is self-validating: the
 * header carries the owning transaction's sequence number and a
 * word-at-a-time checksum over (targetOff, len, seqLo, payload) that
 * any one torn word changes (common/checksum.h), and there is no
 * persistent tail pointer (descriptor.h). Recovery therefore never
 * needs an *ordering* fence between an entry's header and payload —
 * a torn entry simply fails validation and scanning stops. What the
 * per-entry fence in the classic append path actually buys is
 * ordering between the entry and the *in-place stores that follow
 * it* (an undo image must beat its clobbering write to the media).
 *
 * The writers make that cost explicit and optional (pmembench's
 * log-writer shootout, van Renen et al.):
 *
 *  - baseline    entry write + flush (+ fence when the protocol asks
 *                for LogFence::required). The classic path; the
 *                ablation reference.
 *  - zerocached  entries are packed into a per-slot DRAM staging
 *                window of 4 cache lines and reach NVM as one
 *                coalesced write + flush per window, when a
 *                window fills or at sealForFence(). Never a fence;
 *                entry validity rests on the checksum.
 *
 * The zerocached writer *elides* the required fence
 * (elidesRequiredFence() == true). That is a real durability-ordering
 * relaxation, not a free lunch: an in-place store can now become
 * durable while the log entry covering it is lost, and after a torn
 * crash the missing entry is indistinguishable from "never appended".
 * The runtimes compensate (see DESIGN.md §15): commit paths seal the
 * staged log before their data fence — so a *committed* transaction
 * is exactly as safe as under baseline — and recovery of a slot that
 * was mid-transaction under an eliding writer rolls back best-effort
 * and always declares a salvage abort instead of claiming a clean
 * roll-back (clobber-family runtimes also skip re-execution, which
 * would otherwise read potentially-unlogged inputs).
 */
#ifndef CNVM_RUNTIMES_LOG_WRITER_H
#define CNVM_RUNTIMES_LOG_WRITER_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "runtimes/descriptor.h"

namespace cnvm::nvm {
class Pool;
}
namespace cnvm::txn {
class Runtime;
}

namespace cnvm::rt {

/**
 * Durability-ordering requirement of a log entry append.
 *
 * `required` asks for the entry to be durable before the caller
 * executes anything that could tear independently of it (an undo
 * image must beat its in-place write to the media). `deferred` only
 * asks for a flush, retired by the *next* fence the slot issues —
 * sound for entries whose loss is harmless until a later durable
 * point (redo entries before the commit record, Atlas marker records:
 * see DESIGN.md §12 for the torn-line argument).
 *
 * Only the baseline writer turns `required` into an actual sfence;
 * the zerocached writer elides it (see the file comment).
 */
enum class LogFence {
    required,
    deferred,
};

enum class LogWriterKind : uint32_t {
    baseline,
    zerocached,
};

/** Stable engine name ("baseline", "zerocached"). */
const char* logWriterName(LogWriterKind k);

/** Parse an engine name (also accepts "zero-cached"). */
bool logWriterKindFromName(const char* name, LogWriterKind* out);

/** Engine selected by CNVM_LOG_WRITER (default: baseline; unknown
 *  names fall back to baseline so a typo cannot change semantics). */
LogWriterKind logWriterKindFromEnv();

class LogWriter {
 public:
    virtual ~LogWriter() = default;

    virtual LogWriterKind kind() const = 0;
    const char* name() const { return logWriterName(kind()); }

    /**
     * True when LogFence::required appends are not actually fenced:
     * recovery must treat any interrupted transaction's log as
     * potentially incomplete (declare, don't re-execute).
     */
    virtual bool elidesRequiredFence() const = 0;

    /**
     * Append one already-checksummed entry at `area + tail`. `need`
     * is the 8-byte-aligned stride the caller advances the tail by
     * (header + padded payload). The writer owns getting the bytes
     * to NVM and issuing flushes/fences per its engine contract.
     */
    virtual void append(unsigned tid, uint8_t* area, size_t tail,
                        size_t need, const LogEntryHeader& h,
                        const void* payload, LogFence fence) = 0;

    /**
     * Make every byte appended at or before logical position `tail`
     * visible to NVM and flushed (not fenced): the caller's next
     * fence retires them. No-op for write-through engines; the
     * zerocached writer copies out its partial staging window.
     * Commit/abort/rollback paths call this before their first fence
     * and before any salvage::scanLogArea over the slot's area.
     */
    virtual void sealForFence(unsigned tid, uint8_t* area, size_t tail);
};

/** Construct an engine bound to `pool` (per-slot state is sized from
 *  the pool's maxThreads). */
std::unique_ptr<LogWriter> makeLogWriter(LogWriterKind kind,
                                         nvm::Pool& pool);

/**
 * Swap the log writer of a RuntimeBase-derived runtime (benches sweep
 * engines within one process; CNVM_LOG_WRITER is read once at
 * construction). @return false if `rt` is not RuntimeBase-derived.
 * Must not be called with a transaction in flight.
 */
bool selectLogWriter(txn::Runtime& rt, LogWriterKind kind);

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_LOG_WRITER_H
