#include "runtimes/redo.h"

#include <cstring>

#include "common/error.h"
#include "sim/context.h"
#include "stats/simtime.h"
#include "stats/counters.h"

namespace cnvm::rt {

RedoRuntime::RedoRuntime(nvm::Pool& pool, alloc::PmAllocator& heap)
    : RuntimeBase(pool, heap), writeMaps_(pool.maxThreads())
{
}

void
RedoRuntime::txBegin(unsigned tid, txn::FuncId,
                     std::span<const uint8_t> args)
{
    SlotState& s = slot(tid);
    CNVM_CHECK(!s.inTx, "nested transactions are not supported");
    s.inTx = true;
    s.resetTx();
    // Redo needs no begin record: mark the slot begun so the shared
    // alloc path's ensureBegun() does not persist one (that would
    // bump txSeq mid-transaction and invalidate earlier log entries).
    s.begunPersist = true;
    s.volatileArgs.assign(args.begin(), args.end());
    writeMaps_[tid].clear();
    // Bump the sequence number. The flush is drained by the next fence
    // we issue (intent table or commit record), which is early enough:
    // the sequence only matters once something of this transaction is
    // durable.
    TxDescriptor& d = desc(tid);
    uint64_t seq = d.txSeq + 1;
    pool_.write(&d.txSeq, &seq, sizeof(seq));
    pool_.flush(&d.txSeq, sizeof(seq));
    stats::bump(stats::Counter::txBegins);
}

uint64_t
RedoRuntime::effectiveWord(unsigned tid, uint64_t wordOff) const
{
    auto it = writeMaps_[tid].find(wordOff);
    if (it != writeMaps_[tid].end())
        return it->second;
    uint64_t v;
    std::memcpy(&v, pool_.base() + wordOff * kBlock, sizeof(v));
    return v;
}

void
RedoRuntime::store(unsigned tid, void* dst, const void* src, size_t n)
{
    if (n == 0)
        return;
    // Append the redo entry (flushed, not fenced): nothing acts on it
    // until the commit record, and the commit path's drain fence
    // retires every pending entry at once.
    appendLogEntry(tid, pool_.offsetOf(dst), src,
                   static_cast<uint32_t>(n), LogFence::deferred);
    stats::bump(stats::Counter::redoEntries);
    stats::bump(stats::Counter::redoBytes, n);

    // Fold the store into the word-granular write set.
    auto& map = writeMaps_[tid];
    uint64_t off = pool_.offsetOf(dst);
    uint64_t firstWord = off / kBlock;
    uint64_t lastWord = (off + n - 1) / kBlock;
    const auto* sp = static_cast<const uint8_t*>(src);
    for (uint64_t w = firstWord; w <= lastWord; w++) {
        uint64_t v = effectiveWord(tid, w);
        auto* vb = reinterpret_cast<uint8_t*>(&v);
        uint64_t wordBase = w * kBlock;
        for (unsigned b = 0; b < kBlock; b++) {
            uint64_t addr = wordBase + b;
            if (addr >= off && addr < off + n)
                vb[b] = sp[addr - off];
        }
        map[w] = v;
    }
}

void
RedoRuntime::initZero(unsigned tid, void* dst, size_t n)
{
    // Zeroing must reach the write set: the home location holds
    // arbitrary old bytes until commit write-back / replay.
    static constexpr size_t kChunk = 512;
    uint8_t zeros[kChunk] = {};
    auto* p = static_cast<uint8_t*>(dst);
    for (size_t i = 0; i < n; i += kChunk)
        store(tid, p + i, zeros, std::min(kChunk, n - i));
}

void
RedoRuntime::load(unsigned tid, void* dst, const void* src, size_t n)
{
    if (n == 0)
        return;
    // Every transactional read pays the write-set redirection latency
    // (modeled: the interposition itself is too cheap under the
    // compute-scale calibration to represent Mnemosyne's STM read
    // barrier).
    if (auto* c = sim::cur()) {
        if (slot(tid).inTx)
            c->advance(stats::persistParams().redoReadNs);
    }
    auto& map = writeMaps_[tid];
    if (map.empty()) {
        std::memcpy(dst, src, n);
        return;
    }
    uint64_t off = pool_.offsetOf(src);
    uint64_t firstWord = off / kBlock;
    uint64_t lastWord = (off + n - 1) / kBlock;
    auto* dp = static_cast<uint8_t*>(dst);
    for (uint64_t w = firstWord; w <= lastWord; w++) {
        uint64_t v = effectiveWord(tid, w);
        const auto* vb = reinterpret_cast<const uint8_t*>(&v);
        uint64_t wordBase = w * kBlock;
        for (unsigned b = 0; b < kBlock; b++) {
            uint64_t addr = wordBase + b;
            if (addr >= off && addr < off + n)
                dp[addr - off] = vb[b];
        }
    }
}

void
RedoRuntime::txCommit(unsigned tid)
{
    SlotState& s = slot(tid);
    CNVM_CHECK(s.inTx, "commit outside transaction");
    auto& map = writeMaps_[tid];
    TxDescriptor& d = desc(tid);
    if (map.empty() && s.actions.empty()) {
        // Read-only transaction: nothing persistent to do.
        s.inTx = false;
        stats::bump(stats::Counter::txCommits);
        return;
    }
    // 1. Drain the lazy log flushes (writing out anything the
    //    zerocached writer still stages first — the commit record
    //    must never become durable ahead of a log entry).
    sealLog(tid);
    pool_.fence();
    // 2. Persist the intent table, apply alloc bits.
    persistIntentsAndAllocs(tid);
    // 3. Commit record.
    auto status = static_cast<uint64_t>(TxStatus::committing);
    pool_.write(&d.status, &status, sizeof(status));
    pool_.persist(&d.status, sizeof(status));
    // 4. Write back the buffered words to their home locations.
    for (const auto& [w, v] : map) {
        writeDirty(tid, pool_.base() + w * kBlock, &v, sizeof(v));
    }
    flushDirty(tid);
    pool_.fence();
    // 5. Complete frees, then mark idle.
    finishIntentsAfterCommit(tid);
    persistIdle(tid);
    map.clear();
    s.inTx = false;
}

void
RedoRuntime::txAbort(unsigned tid)
{
    SlotState& s = slot(tid);
    if (!s.inTx)
        return;
    // Nothing was written in place and no commit record exists:
    // dropping the volatile write set is the whole abort. The log
    // entries already appended go stale at the next begin's sequence
    // bump (and recovery ignores them — the slot's status is idle).
    writeMaps_[tid].clear();
    for (const auto& [off, isFree] : s.actions) {
        if (!isFree)
            heap_.releaseReservation(off);
    }
    s.inTx = false;
    s.resetTx();
}

void
RedoRuntime::resetVolatileSlot(unsigned tid)
{
    RuntimeBase::resetVolatileSlot(tid);
    writeMaps_[tid].clear();
}

void
RedoRuntime::skipSeq(unsigned tid)
{
    TxDescriptor& d = desc(tid);
    uint64_t seq = d.txSeq + 16;
    pool_.write(&d.txSeq, &seq, sizeof(seq));
    pool_.flush(&d.txSeq, sizeof(seq));
}

void
RedoRuntime::noteTriaged(unsigned tid, txn::SlotClass cls)
{
    // Pending slots skip inside their heal instead: the skip must not
    // invalidate the very log entries the heal still has to replay.
    if (cls == txn::SlotClass::clean)
        skipSeq(tid);
}

void
RedoRuntime::triageFinish()
{
    pool_.fence();
}

void
RedoRuntime::healOneSlot(unsigned tid, txn::SlotClass cls)
{
    RuntimeBase::healOneSlot(tid, cls);
    // Protect the healed slot's sequence before it can be re-admitted
    // (idempotent: healing twice just skips twice).
    skipSeq(tid);
    pool_.fence();
}

void
RedoRuntime::healCommitting(unsigned tid)
{
    // Roll forward: replay the log in order, finish intents. Every
    // entry was flushed and drained by the commit-path fence *before*
    // the commit record, so in this state an incomplete scan — damage
    // or even a clean-looking torn tail — can only mean media
    // corruption, and a partial replay would expose a half-applied
    // transaction.
    salvage::ScanStats st;
    const auto& entries = scanLog(tid, &st);
    txn::SlotRecovery sr;
    sr.tid = tid;
    sr.entriesDropped = st.droppedEntries;
    if (st.damaged() || st.tornTail) {
        recoverIntents(tid, /* committed */ false);
        salvageResetSlot(tid);
        sr.action = txn::SlotAction::salvageAborted;
        sr.note = "committed transaction lost: redo log " +
                  std::string(st.sawPoison ? "poisoned" : "corrupted");
    } else {
        for (const auto& e : entries) {
            if (e.targetOff == kMarkerOff)
                continue;
            pool_.writeAt(e.targetOff, e.data, e.len);
            pool_.flush(pool_.at(e.targetOff), e.len);
            sr.entriesApplied++;
        }
        pool_.fence();
        reapplyAllocIntents(tid);
        recoverIntents(tid, /* committed */ true);
        persistIdle(tid);
        sr.action = txn::SlotAction::rolledForward;
        stats::bump(stats::Counter::recoveries);
    }
    recordSlot(std::move(sr));
}

}  // namespace cnvm::rt
