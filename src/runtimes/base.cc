#include "runtimes/base.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/rand.h"
#include "nvm/cache_sim.h"
#include "stats/counters.h"
#include "txn/args.h"

namespace cnvm::rt {

using salvage::alignUp8;

static_assert(txn::ArgWriter::kInlineBytes == kMaxArgBytes,
              "ArgWriter's inline buffer must hold any v_log blob");

RuntimeBase::RuntimeBase(nvm::Pool& pool, alloc::PmAllocator& heap)
    : pool_(pool), heap_(heap), slots_(pool.maxThreads())
{
    CNVM_CHECK(pool.slotBytes() > logAreaOffset() + 4096,
               "pool slots too small for descriptor + log area");
}

// Kept for kvbench (kvbench/src/workloads.cc), which names the log
// writer when it pins its configuration; every RuntimeBase appends
// through the one writer.
bool
selectLogWriter(txn::Runtime& rt, LogWriterKind /* kind */)
{
    return dynamic_cast<RuntimeBase*>(&rt) != nullptr;
}

TxDescriptor&
RuntimeBase::desc(unsigned tid)
{
    return *static_cast<TxDescriptor*>(pool_.slot(tid));
}

const TxDescriptor&
RuntimeBase::desc(unsigned tid) const
{
    return *static_cast<const TxDescriptor*>(pool_.slot(tid));
}

uint8_t*
RuntimeBase::logArea(unsigned tid)
{
    return static_cast<uint8_t*>(pool_.slot(tid)) + logAreaOffset();
}

size_t
RuntimeBase::logCapacity() const
{
    return pool_.slotBytes() - logAreaOffset();
}

RuntimeBase::SlotState&
RuntimeBase::slot(unsigned tid)
{
    CNVM_CHECK(tid < slots_.size(), "tid out of range");
    return slots_[tid];
}

std::span<const uint8_t>
RuntimeBase::argBlob(unsigned tid) const
{
    const auto& s = slots_[tid];
    return {s.volatileArgs.data(), s.volatileArgs.size()};
}

void
RuntimeBase::writeDirty(unsigned tid, void* dst, const void* src,
                        size_t n)
{
    pool_.write(dst, src, n);
    if (n == 0)
        return;
    SlotState& s = slot(tid);
    uint64_t off = pool_.offsetOf(dst);
    uint64_t first = off / nvm::kCacheLine;
    uint64_t last = (off + n - 1) / nvm::kCacheLine;
    // Same-line memo: repeated stores to the current cache line (field
    // updates, sequential small writes) skip the dedupe probe.
    if (first == s.lastDirtyLine && last == s.lastDirtyLine)
        return;
    for (uint64_t ln = first; ln <= last; ln++) {
        uint8_t& seen = s.dirtySeen.ref(ln);
        if (seen == 0) {
            seen = BlockMap::kWritten;
            s.dirtyLines.push_back(ln);
        }
    }
    s.lastDirtyLine = last;
}

void
RuntimeBase::flushDirty(unsigned tid)
{
    SlotState& s = slot(tid);
    s.lastDirtyLine = ~0ULL;
    if (s.dirtyLines.empty())
        return;
    pool_.flushLines(s.dirtyLines.data(), s.dirtyLines.size());
    // Both go: iDO flushes at every region boundary, and a line
    // re-dirtied after one must be written back again at commit.
    s.dirtyLines.clear();
    s.dirtySeen.clear();
}

void
RuntimeBase::appendLogEntry(unsigned tid, uint64_t targetOff,
                            const void* payload, uint32_t len,
                            LogFence fence)
{
    CNVM_CHECK(len > 0, "empty log entry");
    SlotState& s = slot(tid);
    size_t need = sizeof(LogEntryHeader) + alignUp8(len);
    if (s.logTail + need > logCapacity())
        throw txn::LogOverflowError(s.logTail + need, logCapacity());
    LogEntryHeader h{};
    h.targetOff = targetOff;
    h.len = len;
    h.seqLo = static_cast<uint32_t>(desc(tid).txSeq);
    h.checksum =
        salvage::entryChecksum(h, static_cast<const uint8_t*>(payload));
    uint8_t* dst = logArea(tid) + s.logTail;
    pool_.write(dst, &h, sizeof(h));
    pool_.write(dst + sizeof(h), payload, len);
    pool_.flush(dst, need);
    stats::bump(stats::Counter::logFlushes);
    if (fence == LogFence::required)
        pool_.fence();
    s.logTail += need;
    stats::bump(stats::Counter::logEntries);
    stats::bump(stats::Counter::logBytes, need);
}

const std::vector<ScannedEntry>&
RuntimeBase::scanLog(unsigned tid, salvage::ScanStats* stats)
{
    std::vector<ScannedEntry>& out = slot(tid).scanScratch;
    salvage::scanLogArea(&pool_, logArea(tid), logCapacity(),
                         static_cast<uint32_t>(desc(tid).txSeq), out,
                         stats);
    return out;
}

uint64_t
RuntimeBase::beginChecksum(unsigned tid) const
{
    return salvage::beginChecksum(desc(tid));
}

void
RuntimeBase::persistBegin(unsigned tid, txn::FuncId fid,
                          std::span<const uint8_t> args,
                          bool persistArgs)
{
    TxDescriptor& d = desc(tid);
    uint64_t seq = d.txSeq + 1;
    auto status = static_cast<uint64_t>(TxStatus::ongoing);
    auto argLen =
        static_cast<uint32_t>(persistArgs ? args.size() : 0);
    CNVM_CHECK(argLen <= kMaxArgBytes,
               "transaction argument blob too large");
    pool_.write(&d.status, &status, sizeof(status));
    pool_.write(&d.txSeq, &seq, sizeof(seq));
    pool_.write(&d.fid, &fid, sizeof(fid));
    pool_.write(&d.argLen, &argLen, sizeof(argLen));
    if (argLen > 0)
        pool_.write(d.args, args.data(), args.size());
    uint64_t sum = beginChecksum(tid);
    pool_.write(&d.beginSum, &sum, sizeof(sum));
    size_t persistBytes = offsetof(TxDescriptor, args) + argLen;
    if (persistArgs) {
        stats::bump(stats::Counter::vlogEntries);
        stats::bump(stats::Counter::vlogBytes,
                    sizeof(uint64_t) * 2 + sizeof(uint32_t) * 2 +
                        args.size());
    }
    pool_.flush(&d, persistBytes);
    pool_.fence();
}

void
RuntimeBase::persistIntentsAndAllocs(unsigned tid)
{
    SlotState& s = slot(tid);
    if (s.actions.empty())
        return;
    CNVM_CHECK(s.actions.size() <= kMaxIntents,
               "too many allocation actions in one transaction");
    TxDescriptor& d = desc(tid);
    std::vector<AllocIntent>& table = s.intentScratch;
    table.clear();
    for (const auto& [off, isFree] : s.actions) {
        AllocIntent in{};
        in.payloadOff = off;
        in.payloadBytes = heap_.payloadSize(off);
        in.isFree = isFree ? 1 : 0;
        table.push_back(in);
    }
    auto count = static_cast<uint32_t>(table.size());
    uint64_t sum = salvage::intentChecksum(d.txSeq, count, table.data());
    pool_.write(&d.intentSeq, &d.txSeq, sizeof(d.txSeq));
    pool_.write(&d.intentCount, &count, sizeof(count));
    pool_.write(&d.intentSum, &sum, sizeof(sum));
    pool_.write(d.intents, table.data(),
                table.size() * sizeof(AllocIntent));
    pool_.flush(&d.intentSeq,
                offsetof(TxDescriptor, intents) -
                    offsetof(TxDescriptor, intentSeq) +
                    table.size() * sizeof(AllocIntent));
    pool_.fence();
    for (const auto& [off, isFree] : s.actions) {
        if (!isFree)
            heap_.persistAllocate(off);
    }
}

void
RuntimeBase::finishIntentsAfterCommit(unsigned tid)
{
    SlotState& s = slot(tid);
    if (s.actions.empty())
        return;
    // Free with the sizes recorded in the (just-persisted) intent
    // table rather than re-reading block headers: the table is the
    // authority, and a header whose media went bad must not be able
    // to fail a commit that already passed its commit point.
    TxDescriptor& d = desc(tid);
    bool anyFree = false;
    for (uint32_t i = 0; i < d.intentCount; i++) {
        const AllocIntent& in = d.intents[i];
        if (in.isFree != 0) {
            heap_.persistFree(in.payloadOff, in.payloadBytes);
            anyFree = true;
        }
    }
    // The fence must retire the bitmap clears BEFORE the table is
    // invalidated: if intentCount = 0 could become durable while a
    // free's bitmap word tore, recovery would see no live table and
    // the freed block would leak forever.
    if (anyFree)
        pool_.fence();
    uint32_t zero = 0;
    pool_.write(&d.intentCount, &zero, sizeof(zero));
    pool_.flush(&d.intentCount, sizeof(zero));
    // The invalidation must be durable BEFORE persistIdle's status
    // write can be: a live table on a durably-idle slot is
    // indistinguishable from a crash before the commit record, and
    // recovery would roll back this committed transaction's
    // allocations (freeing reachable blocks). A torn crash can
    // persist the 8-byte status word while the intent-count line is
    // lost, so sharing persistIdle's fence is not enough.
    pool_.fence();
}

void
RuntimeBase::recoverIntents(unsigned tid, bool committed)
{
    TxDescriptor& d = desc(tid);
    if (!salvage::intentsLive(d))
        return;
    for (uint32_t i = 0; i < d.intentCount; i++) {
        const AllocIntent& in = d.intents[i];
        if (committed) {
            // Complete the commit: make sure allocs are marked and
            // frees are applied.
            heap_.revertBits(in.payloadOff, in.payloadBytes,
                             in.isFree == 0);
        } else if (in.isFree == 0) {
            // Roll back: allocations revert to free; frees were never
            // applied before the commit point, so leave them alone.
            heap_.revertBits(in.payloadOff, in.payloadBytes, false);
        }
    }
    pool_.fence();
    uint32_t zero = 0;
    pool_.write(&d.intentCount, &zero, sizeof(zero));
    pool_.persist(&d.intentCount, sizeof(zero));
}

void
RuntimeBase::reapplyAllocIntents(unsigned tid)
{
    TxDescriptor& d = desc(tid);
    if (!salvage::intentsLive(d))
        return;
    for (uint32_t i = 0; i < d.intentCount; i++) {
        const AllocIntent& in = d.intents[i];
        if (in.isFree == 0)
            heap_.revertBits(in.payloadOff, in.payloadBytes, true);
    }
    pool_.fence();
}

RuntimeBase::RecoverySession::RecoverySession(RuntimeBase& rt)
    : rt_(rt)
{
    report_.slotsScanned = rt_.pool_.maxThreads();
    if (const nvm::FaultModel* fm = rt_.pool_.faults()) {
        poisonReads0_ = fm->poisonReads();
        retries0_ = fm->retries();
    }
    rt_.report_ = &report_;
}

RuntimeBase::RecoverySession::~RecoverySession()
{
    rt_.report_ = nullptr;
}

txn::RecoveryReport
RuntimeBase::RecoverySession::take()
{
    if (const nvm::FaultModel* fm = rt_.pool_.faults()) {
        report_.poisonedReads = fm->poisonReads() - poisonReads0_;
        report_.transientRetries = fm->retries() - retries0_;
    }
    rt_.report_ = nullptr;
    return std::move(report_);
}

void
RuntimeBase::recordSlot(txn::SlotRecovery s)
{
    if (report_ == nullptr)
        return;
    if (s.entriesDropped > 0) {
        stats::bump(stats::Counter::salvageDroppedEntries,
                    s.entriesDropped);
    }
    report_->add(std::move(s));
}

void
RuntimeBase::abandonSlot(unsigned tid)
{
    // Rebuild the whole descriptor rather than patching fields: the
    // full rewrite clears every stale field *and* heals the media
    // (fresh stores make the lines trustworthy again), so the next
    // recovery pass sees a clean idle slot instead of re-declaring
    // the same damage forever. txSeq survives — bumped, so surviving
    // log entries of the abandoned transaction can never validate
    // again.
    TxDescriptor& d = desc(tid);
    TxDescriptor clean{};
    std::memcpy(&clean.txSeq, &d.txSeq, sizeof(clean.txSeq));
    clean.txSeq += 1;
    clean.status = static_cast<uint64_t>(TxStatus::idle);
    pool_.write(&d, &clean, sizeof(clean));
    pool_.persist(&d, sizeof(clean));
}

void
RuntimeBase::declareSalvageAbort(unsigned tid, std::string note,
                                 uint64_t applied, uint64_t dropped)
{
    abandonSlot(tid);
    stats::bump(stats::Counter::salvageAborts);
    txn::SlotRecovery sr;
    sr.tid = tid;
    sr.action = txn::SlotAction::salvageAborted;
    sr.entriesApplied = applied;
    sr.entriesDropped = dropped;
    sr.note = std::move(note);
    recordSlot(std::move(sr));
}

uint64_t
RuntimeBase::rollBackLog(unsigned tid, salvage::ScanStats* stats)
{
    const auto& entries = scanLog(tid, stats);
    uint64_t applied = 0;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (it->targetOff == kMarkerOff)
            continue;  // bookkeeping record, not a memory image
        pool_.writeAt(it->targetOff, it->data, it->len);
        pool_.flush(pool_.at(it->targetOff), it->len);
        applied++;
    }
    pool_.fence();
    // Outside recovery an intent table only persists inside txCommit,
    // after every append, so an abort finds none; a crashed
    // transaction's table is reverted here.
    recoverIntents(tid, /* committed */ false);
    return applied;
}

void
RuntimeBase::txAbort(unsigned tid)
{
    SlotState& s = slot(tid);
    if (!s.inTx)
        return;
    // Roll the in-place writes back from the log (for clobber-family
    // runtimes this restores the clobbered inputs only; blind stores
    // to pre-existing blocks stay, the same caveat their recovery
    // documents).
    if (s.begunPersist)
        rollBackLog(tid, nullptr);
    // Un-reserve this transaction's allocations (volatile only: their
    // bitmap bits are not set until commit).
    for (const auto& [off, isFree] : s.actions) {
        if (!isFree)
            heap_.releaseReservation(off);
    }
    if (s.begunPersist)
        abandonSlot(tid);
    s.inTx = false;
    s.resetTx();
}

bool
RuntimeBase::slotRecoverable(unsigned tid)
{
    // A begin record that reads back but sits on a flipped line is as
    // untrustworthy as a poisoned one: a flipped status, txSeq or
    // begin checksum silently misroutes the whole slot's recovery.
    // Resetting without reverting intents can leak blocks, but
    // replaying a possibly-flipped intent table could corrupt the
    // bitmap — the leak is the safe direction, and it is declared.
    // Only the begin record is vetted here; intent-table faults are
    // the province of salvage::intentsGuarded.
    const char* why = salvage::beginDamage(pool_, desc(tid));
    if (why == nullptr)
        return true;
    declareSalvageAbort(tid, why);
    return false;
}

void
RuntimeBase::recoverIdleIntents(unsigned tid, bool committed)
{
    int live = salvage::intentsGuarded(pool_, desc(tid));
    if (live > 0) {
        recoverIntents(tid, committed);
        txn::SlotRecovery sr;
        sr.tid = tid;
        sr.action = committed ? txn::SlotAction::intentsCompleted
                              : txn::SlotAction::intentsReverted;
        recordSlot(std::move(sr));
    } else if (live < 0) {
        if (report_ != nullptr)
            report_->intentTablesLost++;
        declareSalvageAbort(tid, "alloc intent table unreadable or corrupt");
    }
}

void
RuntimeBase::resetVolatileSlot(unsigned tid)
{
    slot(tid).reset();
}

txn::RecoveryIndex
RuntimeBase::recoveryTriage()
{
    txn::RecoveryIndex idx;
    for (unsigned tid = 0; tid < pool_.maxThreads(); tid++) {
        resetVolatileSlot(tid);
        txn::IndexEntry e;
        e.tid = tid;
        e.cls = salvage::triageSlot(pool_, tid, idx.holds);
        noteTriaged(tid, e.cls);
        if (e.cls != txn::SlotClass::clean)
            idx.entries.push_back(e);
    }
    triageFinish();
    return idx;
}

void
RuntimeBase::healOneSlot(unsigned tid, txn::SlotClass)
{
    // Re-derive the slot's condition from media: the triage class is
    // advisory, and a crash mid-heal may have left the slot in a later
    // stage (e.g. already salvage-reset) than the index recorded.
    if (!slotRecoverable(tid))
        return;
    if (salvage::beginLive(desc(tid)))
        healOngoing(tid);
    else if (desc(tid).status ==
             static_cast<uint64_t>(TxStatus::committing))
        healCommitting(tid);
    else
        healIdle(tid);
}

txn::RecoveryReport
RuntimeBase::healSlot(const txn::IndexEntry& e)
{
    RecoverySession session(*this);
    // Per-entry heals examine one slot of the universe triage already
    // counted; merge() takes the max, so report 0 here.
    session.report().slotsScanned = 0;
    healOneSlot(e.tid, e.cls);
    resetVolatileSlot(e.tid);
    return session.take();
}

txn::RecoveryReport
RuntimeBase::healHeap()
{
    RecoverySession session(*this);
    session.report().slotsScanned = 0;
    // Foreground transactions may be in flight (lazy mode): the scan
    // keeps their live reservations masked.
    alloc::RebuildStats rs = heap_.finishScan();
    session.report().quarantinedBlocks += rs.quarantinedBlocks;
    session.report().quarantinedBytes += rs.quarantinedBytes;
    return session.take();
}

void
RuntimeBase::persistIdle(unsigned tid)
{
    TxDescriptor& d = desc(tid);
    auto status = static_cast<uint64_t>(TxStatus::idle);
    uint64_t zeroSum = 0;
    pool_.write(&d.status, &status, sizeof(status));
    // Invalidate the begin record in the same flush: a later
    // transaction's lone status write must not be able to resurrect
    // this (committed) record (status and beginSum share a line).
    pool_.write(&d.beginSum, &zeroSum, sizeof(zeroSum));
    pool_.flush(&d.status,
                offsetof(TxDescriptor, beginSum) + sizeof(zeroSum));
    pool_.fence();
    stats::bump(stats::Counter::txCommits);
}

void
RuntimeBase::stageBegin(unsigned tid, txn::FuncId fid,
                        std::span<const uint8_t> args, bool persistArgs)
{
    SlotState& s = slot(tid);
    CNVM_CHECK(!s.inTx, "nested transactions are not supported");
    s.inTx = true;
    s.resetTx();
    s.volatileArgs.assign(args.begin(), args.end());
    s.pendingFid = fid;
    s.wantArgsPersist = persistArgs;
    stats::bump(stats::Counter::txBegins);
    if (eagerBegin_)
        ensureBegun(tid);
}

void
RuntimeBase::ensureBegun(unsigned tid)
{
    SlotState& s = slot(tid);
    if (!s.inTx || s.begunPersist)
        return;
    s.begunPersist = true;
    persistBegin(tid, s.pendingFid,
                 {s.volatileArgs.data(), s.volatileArgs.size()},
                 s.wantArgsPersist);
    beganPersistently(tid);
}

void
RuntimeBase::txBegin(unsigned tid, txn::FuncId fid,
                     std::span<const uint8_t> args)
{
    stageBegin(tid, fid, args, /* persistArgs */ false);
}

void
RuntimeBase::txCommit(unsigned tid)
{
    SlotState& s = slot(tid);
    CNVM_CHECK(s.inTx, "commit outside transaction");
    if (!s.begunPersist) {
        // Read-only transaction: nothing durable happened.
        s.inTx = false;
        stats::bump(stats::Counter::txCommits);
        return;
    }
    persistIntentsAndAllocs(tid);
    flushDirty(tid);
    pool_.fence();
    persistIdle(tid);
    finishIntentsAfterCommit(tid);
    s.inTx = false;
}

void
RuntimeBase::load(unsigned, void* dst, const void* src, size_t n)
{
    std::memcpy(dst, src, n);
}

void
RuntimeBase::initZero(unsigned tid, void* dst, size_t n)
{
    ensureBegun(tid);
    static constexpr size_t kChunk = 512;
    uint8_t zeros[kChunk] = {};
    auto* p = static_cast<uint8_t*>(dst);
    for (size_t i = 0; i < n; i += kChunk)
        writeDirty(tid, p + i, zeros, std::min(kChunk, n - i));
}

uint64_t
RuntimeBase::alloc(unsigned tid, size_t n)
{
    ensureBegun(tid);
    SlotState& s = slot(tid);
    uint64_t off = heap_.reserve(n);
    s.actions.emplace_back(off, false);
    // Fresh memory is not a transaction input: pre-mark its blocks as
    // written so no runtime ever logs stores into it (PMDK does not
    // undo-log TX_NEW'd objects either).
    size_t payload = heap_.payloadSize(off);
    uint64_t first = off / kBlock;
    uint64_t last = (off + payload - 1) / kBlock;
    for (uint64_t b = first; b <= last; b++) {
        s.blocks.ref(b) |=
            BlockMap::kWritten | BlockMap::kRegionWritten;
    }
    // Note: fresh blocks deliberately do NOT get the kLogged bit. The
    // paper's PMDK baseline (Figure 2b) TX_ADDs freshly allocated
    // fields before writing them, so the undo model logs them too —
    // that asymmetry is a real part of clobber logging's advantage.
    return off;
}

void
RuntimeBase::dealloc(unsigned tid, uint64_t payloadOff)
{
    // A free is a durable effect: a free-only transaction must not
    // take the read-only fast path at commit (its intent table would
    // silently be dropped).
    ensureBegun(tid);
    slot(tid).actions.emplace_back(payloadOff, true);
}

}  // namespace cnvm::rt
