#include "runtimes/nolog.h"

#include <cstring>

#include "common/error.h"
#include "stats/counters.h"

namespace cnvm::rt {

void
NoLogRuntime::txBegin(unsigned tid, txn::FuncId fid,
                      std::span<const uint8_t> args)
{
    stageBegin(tid, fid, args, /* persistArgs */ false);
    // No-log never persists the begin record at all.
    slot(tid).begunPersist = true;
}

void
NoLogRuntime::txCommit(unsigned tid)
{
    SlotState& s = slot(tid);
    CNVM_CHECK(s.inTx, "commit outside transaction");
    s.inTx = false;
    stats::bump(stats::Counter::txCommits);
}

uint64_t
NoLogRuntime::alloc(unsigned tid, size_t n)
{
    // Direct (non-failure-atomic) allocation: mark the bitmap
    // immediately, no intent log, no ordering.
    (void)tid;
    uint64_t off = heap_.reserve(n);
    heap_.persistAllocate(off);
    return off;
}

void
NoLogRuntime::dealloc(unsigned tid, uint64_t payloadOff)
{
    (void)tid;
    heap_.persistFree(payloadOff);
}

void
NoLogRuntime::store(unsigned tid, void* dst, const void* src, size_t n)
{
    writeDirty(tid, dst, src, n);
}

void
NoLogRuntime::load(unsigned, void* dst, const void* src, size_t n)
{
    std::memcpy(dst, src, n);
}

txn::RecoveryIndex
NoLogRuntime::recoveryTriage()
{
    // Nothing persistent to repair (and no way to), but interrupted
    // transactions' volatile slot state must still be dropped or the
    // restarted process cannot begin a new transaction on that slot.
    // The *data* those transactions tore stays torn — that is the
    // point of the baseline, and what the torture sweep detects. The
    // report is likewise honest: no-log has no way to detect damage,
    // so it never declares a salvage abort and the media sweep's
    // shadow audit stays strict.
    txn::RecoveryIndex idx;
    for (SlotState& s : slots_)
        s.reset();
    return idx;
}

}  // namespace cnvm::rt
