/**
 * @file
 * Log-append ordering (`LogFence`) and the one log writer.
 *
 * Every protocol log entry in the repository is self-validating: the
 * header carries the owning transaction's sequence number and a
 * word-at-a-time checksum over (targetOff, len, seqLo, payload) that
 * any one torn word changes (common/checksum.h), and there is no
 * persistent tail pointer (descriptor.h). Recovery therefore never
 * needs an *ordering* fence between an entry's header and payload —
 * a torn entry simply fails validation and scanning stops. What the
 * per-entry fence actually buys is ordering between the entry and the
 * *in-place stores that follow it* (an undo image must beat its
 * clobbering write to the media), and RuntimeBase::appendLogEntry
 * issues it exactly when the protocol asks for LogFence::required.
 */
#ifndef CNVM_RUNTIMES_LOG_WRITER_H
#define CNVM_RUNTIMES_LOG_WRITER_H

#include <cstdint>

namespace cnvm::txn {
class Runtime;
}

namespace cnvm::rt {

/**
 * Durability-ordering requirement of a log entry append.
 *
 * `required` makes the entry durable (write + flush + fence) before
 * the caller executes anything that could tear independently of it
 * (an undo image must beat its in-place write to the media).
 * `deferred` only flushes, retired by the *next* fence the slot
 * issues — sound for entries whose loss is harmless until a later
 * durable point (redo entries before the commit record, Atlas marker
 * records: see DESIGN.md §12 for the torn-line argument).
 */
enum class LogFence {
    required,
    deferred,
};

/**
 * The benchmark (kvbench/) pins its configuration explicitly and
 * names the log writer it runs; these two declarations keep that code
 * compiling now that the append path has a single engine.
 */
enum class LogWriterKind : uint32_t {
    baseline,
};

/** @return whether `rt` is a RuntimeBase, i.e. appends through the
 *  baseline writer. Changes nothing. */
bool selectLogWriter(txn::Runtime& rt, LogWriterKind kind);

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_LOG_WRITER_H
