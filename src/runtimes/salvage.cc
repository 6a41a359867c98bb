#include "runtimes/salvage.h"

#include <cstddef>
#include <cstring>

#include "alloc/pm_allocator.h"
#include "common/checksum.h"
#include "common/error.h"
#include "nvm/fault_model.h"
#include "nvm/pool.h"

namespace cnvm::rt::salvage {

// Each sum folds in the record's media words in media order, two
// 32-bit fields sharing a word as that one word (little-endian), so
// a torn media word is a changed checksum word (common/checksum.h).

uint64_t
entryChecksum(const LogEntryHeader& h, const uint8_t* data)
{
    WordSum s;
    s.add(h.targetOff);
    s.add(uint64_t{h.len} | uint64_t{h.seqLo} << 32);
    s.addBytes(data, h.len);
    return s.value();
}

uint64_t
beginChecksum(const TxDescriptor& d)
{
    WordSum s;
    s.add(d.txSeq);
    s.add(uint64_t{d.fid} | uint64_t{d.argLen} << 32);
    if (d.argLen > 0 && d.argLen <= kMaxArgBytes)
        s.addBytes(d.args, d.argLen);
    return s.value();
}

uint64_t
intentChecksum(uint64_t seq, uint32_t count, const AllocIntent* table)
{
    WordSum s;
    s.add(seq);
    s.add(count);
    s.addBytes(table, count * sizeof(AllocIntent));
    return s.value();
}

namespace {

constexpr size_t kNoPos = ~size_t{0};

/** Guarded read probe: false if [p, p+n) is poisoned. */
bool
readable(const nvm::Pool* pool, const void* p, size_t n)
{
    if (pool == nullptr)
        return true;
    try {
        pool->checkRead(p, n);
    } catch (const nvm::MediaFaultError&) {
        return false;
    }
    return true;
}

/**
 * Find the next fully-valid entry of `seqLo` at 8-byte alignment in
 * (from, cap). Because seqLo changes every transaction and a slot's
 * log is append-only within one, a hit proves the stretch between
 * `from` and the hit is mid-log damage rather than a torn tail.
 */
size_t
resync(const nvm::Pool* pool, const uint8_t* area, size_t cap,
       uint32_t seqLo, size_t from)
{
    for (size_t pos = from + 8; pos + sizeof(LogEntryHeader) <= cap;
         pos += 8) {
        if (!readable(pool, area + pos, sizeof(LogEntryHeader)))
            continue;
        LogEntryHeader h;
        std::memcpy(&h, area + pos, sizeof(h));
        if (h.len == 0 || h.seqLo != seqLo)
            continue;
        size_t need = sizeof(LogEntryHeader) + alignUp8(h.len);
        if (pos + need > cap)
            continue;
        const uint8_t* data = area + pos + sizeof(LogEntryHeader);
        if (!readable(pool, data, h.len))
            continue;
        if (entryChecksum(h, data) == h.checksum)
            return pos;
    }
    return kNoPos;
}

}  // namespace

void
scanLogArea(const nvm::Pool* pool, const uint8_t* area, size_t cap,
            uint32_t seqLo, std::vector<ScannedEntry>& out,
            ScanStats* stats)
{
    out.clear();
    ScanStats st;
    if (pool != nullptr && pool->faults() == nullptr)
        pool = nullptr;  // no model: skip the guarded-read machinery
    size_t pos = 0;
    // Skip the bad stretch at `from` to the next valid entry of this
    // transaction. A successor proves the stretch mid-log damage.
    // With none, a checksum failure on a clean line is the familiar
    // torn tail; poison, taint and an impossible length are damage
    // that runs to the end of the log. Each damaged stretch counts
    // once in droppedEntries, however many entries it held.
    enum class Bad { poison, corrupt, checksum };
    auto skipTo = [&](size_t from, Bad bad) {
        size_t nxt = resync(pool, area, cap, seqLo, from);
        if (nxt == kNoPos && bad == Bad::checksum) {
            if (pool == nullptr ||
                !pool->isTainted(area + from, sizeof(LogEntryHeader))) {
                st.tornTail = true;
                return false;
            }
            bad = Bad::corrupt;
        }
        if (bad == Bad::poison)
            st.sawPoison = true;
        if (bad == Bad::corrupt || nxt != kNoPos)
            st.sawCorruption = true;
        st.droppedEntries++;
        if (nxt == kNoPos)
            return false;
        st.droppedBytes += nxt - from;
        pos = nxt;
        return true;
    };
    while (pos + sizeof(LogEntryHeader) <= cap) {
        if (!readable(pool, area + pos, sizeof(LogEntryHeader))) {
            if (!skipTo(pos, Bad::poison))
                break;
            continue;
        }
        LogEntryHeader h;
        std::memcpy(&h, area + pos, sizeof(h));
        if (h.len == 0 || h.seqLo != seqLo) {
            // Clean-looking stop. On a tainted line it may be a flip
            // that zeroed the length or mangled the sequence — treat
            // as damage and try to carry on past it.
            if (pool != nullptr &&
                pool->isTainted(area + pos, sizeof(LogEntryHeader)) &&
                skipTo(pos, Bad::corrupt))
                continue;
            break;
        }
        size_t need = sizeof(LogEntryHeader) + alignUp8(h.len);
        if (pos + need > cap) {
            // Insane length: cannot be a real append (appendLogEntry
            // bounds-checks), so this is damage, not a tail.
            if (!skipTo(pos, Bad::corrupt))
                break;
            continue;
        }
        const uint8_t* data = area + pos + sizeof(LogEntryHeader);
        if (!readable(pool, data, h.len)) {
            // Valid header, poisoned payload: drop just this entry.
            st.sawPoison = true;
            st.droppedEntries++;
            st.droppedBytes += need;
            pos += need;
            continue;
        }
        if (entryChecksum(h, data) != h.checksum) {
            if (!skipTo(pos, Bad::checksum))
                break;
            continue;
        }
        out.push_back(ScannedEntry{h.targetOff, h.len, data});
        st.entries++;
        st.payloadBytes += h.len;
        pos += need;
    }
    if (stats != nullptr)
        *stats = st;
}

bool
beginLive(const TxDescriptor& d)
{
    return d.status == static_cast<uint64_t>(TxStatus::ongoing) &&
           d.argLen <= kMaxArgBytes && beginChecksum(d) == d.beginSum;
}

bool
intentsLive(const TxDescriptor& d)
{
    return d.intentSeq == d.txSeq && d.intentCount != 0 &&
           d.intentCount <= kMaxIntents &&
           intentChecksum(d.intentSeq, d.intentCount, d.intents) ==
               d.intentSum;
}

const char*
beginDamage(const nvm::Pool& pool, const TxDescriptor& d)
{
    constexpr size_t kBeginBytes = offsetof(TxDescriptor, intentSeq);
    if (!readable(&pool, &d, kBeginBytes))
        return "descriptor poisoned";
    if (pool.isTainted(&d, kBeginBytes))
        return "descriptor tainted (bit flip)";
    return nullptr;
}

int
intentsGuarded(const nvm::Pool& pool, const TxDescriptor& d)
{
    constexpr size_t kTableBytes =
        sizeof(TxDescriptor) - offsetof(TxDescriptor, intentSeq);
    if (!readable(&pool, &d.intentSeq, kTableBytes))
        return -1;
    if (intentsLive(d))
        return 1;
    // A table that *looks* live (right seq, sane count) but fails its
    // checksum on a tainted line was corrupted, not torn: the alloc
    // actions it described are unrecoverable.
    if (d.intentSeq == d.txSeq && d.intentCount > 0 &&
        d.intentCount <= kMaxIntents &&
        pool.isTainted(&d.intentSeq, kTableBytes)) {
        return -1;
    }
    return 0;
}

txn::SlotClass
triageSlot(const nvm::Pool& pool, unsigned tid,
           std::vector<txn::HoldRange>& holds)
{
    const auto& d = *static_cast<const TxDescriptor*>(pool.slot(tid));
    // Read-only damage check — unlike RuntimeBase::slotRecoverable,
    // triage must not salvage-reset anything (the heal does, once).
    if (beginDamage(pool, d) != nullptr)
        return txn::SlotClass::damaged;
    int intents = intentsGuarded(pool, d);
    if (intents > 0) {
        // A live intent table may own blocks whose bitmap bits tore
        // in the crash: pin them out of the free map until this
        // slot's heal settles their true state.
        for (uint32_t i = 0; i < d.intentCount; i++) {
            const AllocIntent& in = d.intents[i];
            txn::HoldRange h;
            h.tid = tid;
            h.off = in.payloadOff - sizeof(alloc::BlockHeader);
            h.bytes = (sizeof(alloc::BlockHeader) + in.payloadBytes +
                       alloc::kGranule - 1) /
                      alloc::kGranule * alloc::kGranule;
            holds.push_back(h);
        }
    }
    if (beginLive(d))
        return txn::SlotClass::ongoing;
    if (d.status == static_cast<uint64_t>(TxStatus::committing))
        return txn::SlotClass::committing;
    // Both a live table and a poisoned/corrupt one need a heal (the
    // heal records the latter as lost); only 0 means nothing to do.
    return intents != 0 ? txn::SlotClass::idleIntents
                        : txn::SlotClass::clean;
}

VerifyResult
verifyPool(nvm::Pool& pool)
{
    VerifyResult r;
    auto problem = [&](std::string s) { r.problems.push_back(std::move(s)); };
    auto note = [&](std::string s) { r.notes.push_back(std::move(s)); };

    const nvm::PoolHeader& h = pool.header();
    uint64_t slotsEnd =
        h.metaOff + static_cast<uint64_t>(h.maxThreads) * h.slotBytes;
    if (h.metaOff < sizeof(nvm::PoolHeader) || slotsEnd > h.heapOff ||
        h.heapOff + h.heapSize > h.size) {
        problem("pool header: slot/heap offsets are inconsistent");
        return r;  // nothing below can be trusted
    }
    if (h.slotBytes < logAreaOffset())
        problem(strprintf("pool header: slotBytes %llu smaller than "
                          "the %zu-byte descriptor",
                          static_cast<unsigned long long>(h.slotBytes),
                          logAreaOffset()));

    // Per-slot descriptors and logs.
    for (unsigned tid = 0; tid < h.maxThreads; tid++) {
        const auto* d = static_cast<const TxDescriptor*>(pool.slot(tid));
        if (!readable(&pool, d, sizeof(TxDescriptor))) {
            problem(strprintf("slot %u: descriptor is poisoned", tid));
            continue;
        }
        if (d->status > static_cast<uint64_t>(TxStatus::committing)) {
            problem(strprintf("slot %u: unknown status %llu", tid,
                              static_cast<unsigned long long>(
                                  d->status)));
            continue;
        }
        bool ongoing =
            d->status != static_cast<uint64_t>(TxStatus::idle);
        if (ongoing) {
            if (d->argLen > kMaxArgBytes) {
                problem(strprintf("slot %u: argLen %u out of range",
                                  tid, d->argLen));
            } else if (beginChecksum(*d) != d->beginSum) {
                note(strprintf("slot %u: begin record fails its "
                               "checksum (torn begin)",
                               tid));
            }
        }
        if (d->intentCount != 0) {
            if (d->intentCount > kMaxIntents) {
                problem(strprintf("slot %u: intent count %u out of "
                                  "range",
                                  tid, d->intentCount));
            } else if (d->intentSeq == d->txSeq &&
                       intentChecksum(d->intentSeq, d->intentCount,
                                      d->intents) != d->intentSum) {
                problem(strprintf("slot %u: live-looking intent table "
                                  "fails its checksum",
                                  tid));
            } else {
                note(strprintf("slot %u: %u live alloc intents", tid,
                               d->intentCount));
            }
        }
        const uint8_t* area =
            static_cast<const uint8_t*>(pool.slot(tid)) +
            logAreaOffset();
        size_t cap = h.slotBytes - logAreaOffset();
        std::vector<ScannedEntry> entries;
        ScanStats st;
        scanLogArea(&pool, area, cap,
                    static_cast<uint32_t>(d->txSeq), entries, &st);
        if (st.damaged()) {
            problem(strprintf(
                "slot %u: log damaged (%llu entries salvaged, %llu "
                "dropped, poison=%d)",
                tid, static_cast<unsigned long long>(st.entries),
                static_cast<unsigned long long>(st.droppedEntries),
                st.sawPoison ? 1 : 0));
        } else if (ongoing && st.entries > 0) {
            note(strprintf("slot %u: %llu valid log entries "
                           "(interrupted transaction)",
                           tid,
                           static_cast<unsigned long long>(
                               st.entries)));
        }
    }

    // Allocator metadata: parse raw, never via PmAllocator (whose
    // constructor writes: it formats a zero heap and heals a damaged
    // header in place).
    const auto* ah = static_cast<const alloc::AllocHeader*>(
        pool.at(h.heapOff));
    if (!readable(&pool, ah, sizeof(*ah))) {
        problem("heap: allocator header is poisoned");
        return r;
    }
    if (ah->magic == 0) {
        note("heap: not formatted (no allocator magic)");
        return r;
    }
    if (ah->magic != alloc::PmAllocator::kMagic)
        problem("heap: allocator magic damaged");
    // Every other field is fixed by the pool's geometry; a restart
    // heals a header that differs (the magic is reported above).
    alloc::AllocHeader want{};
    try {
        want = alloc::PmAllocator::expectedHeader(pool);
    } catch (const PanicError&) {
        problem("heap: region too small for the allocator's layout");
        return r;
    }
    want.magic = ah->magic;
    if (std::memcmp(ah, &want, sizeof(want)) != 0)
        problem("heap: allocator header differs from the layout the "
                "pool geometry fixes");
    uint64_t heapEnd = h.heapOff + h.heapSize;
    if (ah->bitmapOff < h.heapOff || ah->bitmapOff >= heapEnd ||
        ah->bitmapOff + ah->bitmapBytes > heapEnd ||
        ah->dataOff < h.heapOff || ah->dataOff + ah->dataBytes > heapEnd ||
        ah->quarOff < h.heapOff || ah->quarOff >= heapEnd) {
        problem("heap: allocator header offsets out of bounds");
        return r;
    }
    const auto* qt = static_cast<const alloc::QuarantineTable*>(
        pool.at(ah->quarOff));
    if (!readable(&pool, qt, sizeof(*qt))) {
        problem("heap: quarantine table is poisoned");
    } else if (qt->count > alloc::QuarantineTable::kCapacity ||
               alloc::quarantineChecksum(qt->count, qt->entries) !=
                   qt->checksum) {
        problem("heap: quarantine table fails its checksum");
    } else if (qt->count > 0) {
        note(strprintf("heap: %u quarantined ranges", qt->count));
    }

    // Walk allocated bitmap runs and validate each run's leading
    // block header. A run that starts inside a quarantined range is
    // exempt: its header is exactly what went bad.
    auto quarantined = [&](uint64_t off) {
        if (qt->count > alloc::QuarantineTable::kCapacity)
            return false;
        for (uint32_t i = 0; i < qt->count; i++) {
            const alloc::QuarantineEntry& e = qt->entries[i];
            if (off >= e.off && off < e.off + e.bytes)
                return true;
        }
        return false;
    };
    const auto* bitmap =
        static_cast<const uint8_t*>(pool.at(ah->bitmapOff));
    uint64_t nGranules = ah->dataBytes / alloc::kGranule;
    bool inRun = false;
    uint64_t badHeaders = 0;
    for (uint64_t i = 0; i <= nGranules; i++) {
        bool allocated = false;
        if (i < nGranules &&
            readable(&pool, bitmap + i / 8, 1)) {
            allocated = (bitmap[i / 8] & (1u << (i % 8))) != 0;
        }
        if (allocated && !inRun) {
            inRun = true;
            uint64_t bOff = ah->dataOff + i * alloc::kGranule;
            if (!quarantined(bOff)) {
                const auto* bh =
                    static_cast<const alloc::BlockHeader*>(
                        pool.at(bOff));
                if (!readable(&pool, bh, sizeof(*bh)) ||
                    (bh->payloadBytes ^
                     alloc::PmAllocator::kBlockMagic) != bh->check) {
                    badHeaders++;
                }
            }
        } else if (!allocated) {
            inRun = false;
        }
    }
    if (badHeaders > 0)
        problem(strprintf("heap: %llu allocated runs with corrupt or "
                          "poisoned block headers",
                          static_cast<unsigned long long>(badHeaders)));
    return r;
}

}  // namespace cnvm::rt::salvage

namespace cnvm::rt {

void
defineFaultRegions(nvm::Pool& pool, const alloc::PmAllocator& heap)
{
    nvm::FaultModel* fm = pool.faults();
    if (fm == nullptr)
        return;
    const nvm::PoolHeader& h = pool.header();
    fm->clearRegions();
    fm->addRegion(nvm::kFaultHeader, 0, h.metaOff);
    for (unsigned tid = 0; tid < h.maxThreads; tid++) {
        uint64_t base = h.metaOff + tid * h.slotBytes;
        fm->addRegion(nvm::kFaultDesc, base, base + logAreaOffset());
        fm->addRegion(nvm::kFaultLog, base + logAreaOffset(),
                      base + h.slotBytes);
    }
    fm->addRegion(nvm::kFaultAllocMeta, h.heapOff, heap.dataOff());
    fm->addRegion(nvm::kFaultHeap, heap.dataOff(),
                  heap.dataOff() + heap.dataBytes());
}

}  // namespace cnvm::rt
