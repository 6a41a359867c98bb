#include "alloc/pm_allocator.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rand.h"
#include "stats/counters.h"

namespace cnvm::alloc {

namespace {

// The bitmap scan loads 8 bitmap bytes as one word: bit g % 8 of byte
// g / 8 is bit g % 64 of the word only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "lazyStepLocked's word loads assume little-endian");

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) / a * a;
}

}  // namespace

uint64_t
quarantineChecksum(uint32_t count, const QuarantineEntry* entries)
{
    uint64_t sum = fnv1a(&count, sizeof(count));
    sum ^= fnv1a(entries, count * sizeof(QuarantineEntry));
    return sum == 0 ? 1 : sum;
}

AllocHeader
PmAllocator::expectedHeader() const
{
    // The layout is a pure function of the pool geometry — which is
    // what makes the header *healable*: a flipped or poisoned header
    // can be recomputed from scratch (see rebuild()).
    uint64_t heapOff = pool_.heapOff();
    uint64_t heapBytes = pool_.heapSize();
    uint64_t headerEnd = alignUp(heapOff + sizeof(AllocHeader), 64);
    uint64_t quarOff = headerEnd;
    uint64_t bitmapOff = alignUp(quarOff + sizeof(QuarantineTable), 64);
    uint64_t avail = heapBytes - (bitmapOff - heapOff);
    // Each bitmap byte administers 8 granules = 128 data bytes.
    uint64_t bitmapBytes = alignUp(avail / 129 + 1, 64);
    uint64_t dataOff = alignUp(bitmapOff + bitmapBytes, kGranule);
    CNVM_CHECK(dataOff < heapOff + heapBytes,
               "heap too small to format");
    uint64_t dataBytes =
        (heapOff + heapBytes - dataOff) / kGranule * kGranule;
    CNVM_CHECK(dataBytes / kGranule <= bitmapBytes * 8,
               "bitmap sizing bug");
    AllocHeader h{};
    h.magic = kMagic;
    h.bitmapOff = bitmapOff;
    h.bitmapBytes = bitmapBytes;
    h.dataOff = dataOff;
    h.dataBytes = dataBytes;
    h.quarOff = quarOff;
    return h;
}

PmAllocator::PmAllocator(nvm::Pool& pool, bool deferRebuild)
    : pool_(pool)
{
    auto* h = static_cast<AllocHeader*>(pool_.at(pool_.heapOff()));
    if (h->magic != kMagic) {
        // Format a fresh heap region.
        AllocHeader newHdr = expectedHeader();
        // Zero the bitmap and quarantine table first (a re-created
        // pool file is already zero, but a recycled region may not
        // be).
        std::vector<uint8_t> zeros(4096, 0);
        for (uint64_t off = newHdr.bitmapOff;
             off < newHdr.bitmapOff + newHdr.bitmapBytes;
             off += zeros.size()) {
            uint64_t n = std::min<uint64_t>(
                zeros.size(),
                newHdr.bitmapOff + newHdr.bitmapBytes - off);
            pool_.writeAt(off, zeros.data(), n);
        }
        QuarantineTable qt{};
        qt.checksum = quarantineChecksum(0, qt.entries);
        pool_.writeAt(newHdr.quarOff, &qt, sizeof(qt));
        pool_.writeAt(pool_.heapOff(), &newHdr, sizeof(newHdr));
        pool_.flush(pool_.at(newHdr.quarOff), sizeof(qt));
        pool_.flush(pool_.at(newHdr.bitmapOff), newHdr.bitmapBytes);
        pool_.persist(h, sizeof(*h));
    }
    if (deferRebuild)
        beginLazyRebuild();
    else
        rebuild();
}

QuarantineTable*
PmAllocator::quarTable() const
{
    return static_cast<QuarantineTable*>(pool_.at(hdr().quarOff));
}

const AllocHeader&
PmAllocator::hdr() const
{
    return *static_cast<const AllocHeader*>(pool_.at(pool_.heapOff()));
}

uint64_t
PmAllocator::blockGranules(uint64_t payloadOff) const
{
    uint64_t total = sizeof(BlockHeader) + payloadSize(payloadOff);
    return alignUp(total, kGranule) / kGranule;
}

size_t
PmAllocator::payloadSize(uint64_t payloadOff) const
{
    const auto* bh = static_cast<const BlockHeader*>(
        pool_.at(blockOff(payloadOff)));
    pool_.checkRead(bh, sizeof(*bh));
    if ((bh->payloadBytes ^ kBlockMagic) != bh->check) {
        throw CorruptBlockError(
            payloadOff,
            strprintf("corrupt block header at pool offset %llu",
                      static_cast<unsigned long long>(
                          blockOff(payloadOff))));
    }
    return bh->payloadBytes;
}

void
PmAllocator::dropBySizeLocked(uint64_t off, uint64_t len)
{
    auto range = bySize_.equal_range(len);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second == off) {
            bySize_.erase(it);
            return;
        }
    }
}

void
PmAllocator::insertFreeExtentLocked(uint64_t off, uint64_t len)
{
    // Coalesce with the predecessor / successor extents.
    auto next = free_.lower_bound(off);
    if (next != free_.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second == off) {
            off = prev->first;
            len += prev->second;
            dropBySizeLocked(prev->first, prev->second);
            free_.erase(prev);
        }
    }
    if (next != free_.end() && off + len == next->first) {
        len += next->second;
        dropBySizeLocked(next->first, next->second);
        free_.erase(next);
    }
    free_[off] = len;
    bySize_.emplace(len, off);
}

void
PmAllocator::insertFreeRunMaskedLocked(uint64_t off, uint64_t len)
{
    if (holds_.empty() && reserved_.empty()) {
        insertFreeExtentLocked(off, len);
        return;
    }
    // Collect every hold / live-reservation range overlapping the run,
    // then insert only the gaps between them.
    std::vector<std::pair<uint64_t, uint64_t>> masks;
    for (const Hold& hd : holds_) {
        if (hd.off < off + len && off < hd.off + hd.bytes)
            masks.emplace_back(hd.off, hd.off + hd.bytes);
    }
    auto it = reserved_.lower_bound(off);
    if (it != reserved_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second > off)
            masks.emplace_back(prev->first,
                               prev->first + prev->second);
    }
    for (; it != reserved_.end() && it->first < off + len; ++it)
        masks.emplace_back(it->first, it->first + it->second);
    if (masks.empty()) {
        insertFreeExtentLocked(off, len);
        return;
    }
    std::sort(masks.begin(), masks.end());
    uint64_t cur = off;
    for (auto [lo, hi] : masks) {
        lo = std::max(lo, off);
        hi = std::min(hi, off + len);
        if (lo > cur)
            insertFreeExtentLocked(cur, lo - cur);
        cur = std::max(cur, hi);
    }
    if (cur < off + len)
        insertFreeExtentLocked(cur, off + len - cur);
}

void
PmAllocator::carveLocked(uint64_t off, uint64_t len)
{
    uint64_t end = off + len;
    auto it = free_.lower_bound(off);
    if (it != free_.begin() &&
        std::prev(it)->first + std::prev(it)->second > off)
        --it;
    while (it != free_.end() && it->first < end) {
        uint64_t lo = it->first;
        uint64_t hi = lo + it->second;
        dropBySizeLocked(lo, it->second);
        it = free_.erase(it);
        // The pieces left either side touch the carved range, not
        // another extent: no coalescing to do.
        if (lo < off) {
            free_[lo] = off - lo;
            bySize_.emplace(off - lo, lo);
        }
        if (end < hi) {
            free_[end] = hi - end;
            bySize_.emplace(hi - end, end);
        }
    }
}

void
PmAllocator::syncRangeLocked(uint64_t off, uint64_t len)
{
    // Past the scan's cursor the bitmap speaks: the scan adds the
    // range's clear runs when it gets there.
    const AllocHeader& h = hdr();
    uint64_t scannedG = std::min(lazyCursor_ * 8, h.dataBytes / kGranule);
    uint64_t lo = std::max(off, h.dataOff);
    uint64_t hi = std::min(off + len, h.dataOff + scannedG * kGranule);
    if (lo >= hi)
        return;
    carveLocked(lo, hi - lo);
    const auto* bm = static_cast<const uint8_t*>(pool_.at(h.bitmapOff));
    uint64_t run = lo;  // start of the clear run being collected
    for (uint64_t b = lo; b < hi; b += kGranule) {
        uint64_t gi = (b - h.dataOff) / kGranule;
        if (((bm[gi / 8] >> (gi % 8)) & 1) != 0) {
            if (run < b)
                insertFreeRunMaskedLocked(run, b - run);
            run = b + kGranule;
        }
    }
    if (run < hi)
        insertFreeRunMaskedLocked(run, hi - run);
}

uint64_t
PmAllocator::reserveLocked(uint64_t need)
{
    auto it = bySize_.lower_bound(need);
    if (it == bySize_.end())
        return 0;
    uint64_t off = it->second;
    uint64_t len = it->first;
    bySize_.erase(it);
    free_.erase(off);
    if (len > need)
        insertFreeExtentLocked(off + need, len - need);
    return off;
}

uint64_t
PmAllocator::reserve(size_t payload)
{
    uint64_t need =
        alignUp(sizeof(BlockHeader) + payload, kGranule);
    uint64_t off;
    {
        std::lock_guard<std::mutex> g(mu_);
        off = reserveLocked(need);
        // During a lazy rebuild the free map only covers the scanned
        // prefix of the bitmap: pull more of the scan before declaring
        // the heap exhausted. 64 chunks = 4 KiB of bitmap = 512 KiB of
        // data per pull keeps the stall bounded.
        while (off == 0 && !lazyScanDone_) {
            lazyStepLocked(64);
            off = reserveLocked(need);
        }
        if (off != 0)
            reserved_[off] = need;
    }
    if (off == 0)
        fatal("persistent heap exhausted");
    BlockHeader bh{payload, payload ^ kBlockMagic};
    pool_.writeAt(off, &bh, sizeof(bh));
    stats::bump(stats::Counter::allocs);
    return off + sizeof(BlockHeader);
}

void
PmAllocator::releaseReservation(uint64_t payloadOff)
{
    uint64_t off = blockOff(payloadOff);
    uint64_t len = blockGranules(payloadOff) * kGranule;
    std::lock_guard<std::mutex> g(mu_);
    reserved_.erase(off);
    syncRangeLocked(off, len);
}

void
PmAllocator::setBits(uint64_t bOff, uint64_t granules, bool value,
                     bool flushBits)
{
    const AllocHeader& h = hdr();
    uint64_t firstGranule = (bOff - h.dataOff) / kGranule;
    uint64_t firstByte = h.bitmapOff + firstGranule / 8;
    uint64_t lastByte = h.bitmapOff + (firstGranule + granules - 1) / 8;
    // Read-modify-write whole bytes under the allocator lock.
    std::vector<uint8_t> buf(lastByte - firstByte + 1);
    std::memcpy(buf.data(), pool_.at(firstByte), buf.size());
    for (uint64_t g = 0; g < granules; g++) {
        uint64_t bit = firstGranule + g;
        uint64_t byte = (h.bitmapOff + bit / 8) - firstByte;
        if (value)
            buf[byte] |= static_cast<uint8_t>(1u << (bit % 8));
        else
            buf[byte] &= static_cast<uint8_t>(~(1u << (bit % 8)));
    }
    pool_.writeAt(firstByte, buf.data(), buf.size());
    if (flushBits)
        pool_.flush(pool_.at(firstByte), buf.size());
}

void
PmAllocator::persistAllocate(uint64_t payloadOff)
{
    uint64_t bOff = blockOff(payloadOff);
    uint64_t granules = blockGranules(payloadOff);
    std::lock_guard<std::mutex> g(mu_);
    setBits(bOff, granules, true, true);
    pool_.flush(pool_.at(bOff), sizeof(BlockHeader));
    reserved_.erase(bOff);  // the bitmap speaks for the block now
}

void
PmAllocator::persistFree(uint64_t payloadOff)
{
    persistFree(payloadOff, payloadSize(payloadOff));
}

void
PmAllocator::persistFree(uint64_t payloadOff, size_t payloadBytes)
{
    uint64_t bOff = blockOff(payloadOff);
    uint64_t granules =
        alignUp(sizeof(BlockHeader) + payloadBytes, kGranule) / kGranule;
    uint64_t len = granules * kGranule;
    std::lock_guard<std::mutex> g(mu_);
    setBits(bOff, granules, false, true);
    for (Hold& hd : holds_) {
        if (hd.off < bOff + len && bOff < hd.off + hd.bytes)
            hd.freed = true;
    }
    syncRangeLocked(bOff, len);
    stats::bump(stats::Counter::frees);
}

void
PmAllocator::revertBits(uint64_t payloadOff, size_t payloadBytes,
                        bool allocated)
{
    uint64_t bOff = blockOff(payloadOff);
    uint64_t granules =
        alignUp(sizeof(BlockHeader) + payloadBytes, kGranule) / kGranule;
    uint64_t len = granules * kGranule;
    std::lock_guard<std::mutex> g(mu_);
    if (allocated) {
        // Lazy recovery heals concurrently with foreground traffic: a
        // block the crashed transaction allocated (and committed) may
        // since have been freed again by a committed foreground
        // transaction, which marked the block's hold. Don't re-force
        // such a block allocated, or the free would leak.
        for (const Hold& hd : holds_) {
            if (hd.freed && hd.off <= bOff &&
                bOff + len <= hd.off + hd.bytes)
                return;
        }
        // Restoring an allocated block whose header may have been
        // torn: rewrite the header from the intent table so later
        // frees can trust it.
        BlockHeader bh{payloadBytes, payloadBytes ^ kBlockMagic};
        pool_.writeAt(bOff, &bh, sizeof(bh));
        pool_.flush(pool_.at(bOff), sizeof(bh));
    }
    setBits(bOff, granules, allocated, true);
    syncRangeLocked(bOff, len);
}

void
PmAllocator::quarantineLocked(uint64_t off, uint64_t bytes,
                              QuarantineReason reason)
{
    QuarantineTable* qt = quarTable();
    // Idempotent: an already-covered range gets no second entry (the
    // bits below are re-forced anyway).
    bool covered = false;
    for (uint32_t i = 0; i < qt->count; i++) {
        const QuarantineEntry& e = qt->entries[i];
        if (e.off <= off && off + bytes <= e.off + e.bytes) {
            covered = true;
            break;
        }
    }
    if (!covered && qt->count < QuarantineTable::kCapacity) {
        QuarantineEntry e{};
        e.off = off;
        e.bytes = bytes;
        e.reason = reason;
        uint32_t count = qt->count + 1;
        pool_.write(&qt->entries[qt->count], &e, sizeof(e));
        pool_.write(&qt->count, &count, sizeof(count));
        uint64_t sum = quarantineChecksum(count, qt->entries);
        pool_.write(&qt->checksum, &sum, sizeof(sum));
        pool_.flush(qt, sizeof(QuarantineTable));
        pool_.fence();
        stats::bump(stats::Counter::quarantinedBlocks);
        stats::bump(stats::Counter::quarantinedBytes, bytes);
    }
    // Force the covered granules allocated so no future rebuild can
    // hand them out. The range is clipped to the data area (a bitmap
    // chunk's tail can administer granules past dataBytes).
    uint64_t lo = std::max(off, hdr().dataOff);
    uint64_t hi = std::min(off + bytes, hdr().dataOff + hdr().dataBytes);
    if (lo < hi) {
        uint64_t granules = (hi - lo + kGranule - 1) / kGranule;
        setBits(lo, granules, true, true);
    }
    syncRangeLocked(off, bytes);
}

void
PmAllocator::quarantine(uint64_t blockOff, uint64_t bytes,
                        QuarantineReason reason)
{
    std::lock_guard<std::mutex> g(mu_);
    quarantineLocked(blockOff, bytes, reason);
    pool_.fence();
}

bool
PmAllocator::isQuarantinedLocked(uint64_t off, uint64_t n) const
{
    const QuarantineTable* qt = quarTable();
    for (uint32_t i = 0; i < qt->count; i++) {
        const QuarantineEntry& e = qt->entries[i];
        if (off < e.off + e.bytes && e.off < off + n)
            return true;
    }
    return false;
}

bool
PmAllocator::isQuarantined(uint64_t off, uint64_t n) const
{
    std::lock_guard<std::mutex> g(mu_);
    return isQuarantinedLocked(off, n);
}

uint32_t
PmAllocator::quarantineCount() const
{
    std::lock_guard<std::mutex> g(mu_);
    return quarTable()->count;
}

uint64_t
PmAllocator::quarantinedBytes() const
{
    std::lock_guard<std::mutex> g(mu_);
    const QuarantineTable* qt = quarTable();
    uint64_t sum = 0;
    for (uint32_t i = 0; i < qt->count; i++)
        sum += qt->entries[i].bytes;
    return sum;
}

bool
PmAllocator::quarantineViolation() const
{
    std::lock_guard<std::mutex> g(mu_);
    const QuarantineTable* qt = quarTable();
    for (uint32_t i = 0; i < qt->count; i++) {
        const QuarantineEntry& e = qt->entries[i];
        for (const auto& [off, len] : free_) {
            if (off < e.off + e.bytes && e.off < off + len)
                return true;
        }
    }
    return false;
}

void
PmAllocator::healMetaLocked(RebuildStats* st)
{
    // Heal the header before trusting a single offset below: its
    // layout fields are recomputable, so a flipped, poisoned or
    // simply wrong header is rewritten in place (the rewrite also
    // clears the line's poison/taint).
    {
        AllocHeader want = expectedHeader();
        auto* cur =
            static_cast<AllocHeader*>(pool_.at(pool_.heapOff()));
        bool bad = pool_.isTainted(cur, sizeof(*cur));
        if (!bad) {
            try {
                pool_.checkRead(cur, sizeof(*cur));
            } catch (const nvm::MediaFaultError&) {
                bad = true;
            }
        }
        if (!bad && std::memcmp(cur, &want, sizeof(want)) != 0)
            bad = true;
        if (bad) {
            pool_.writeAt(pool_.heapOff(), &want, sizeof(want));
            pool_.persist(pool_.at(pool_.heapOff()), sizeof(want));
            st->headerHealed = true;
        }
    }
    const AllocHeader& h = hdr();

    // Validate the quarantine table before trusting it. An unreadable
    // or checksum-failing table is reset: the ranges it described
    // still have their bitmap bits forced allocated (quarantine does
    // both), so nothing resurfaces — only the diagnostic record is
    // lost.
    QuarantineTable* qt = quarTable();
    bool tableOk = true;
    try {
        pool_.checkRead(qt, sizeof(QuarantineTable));
    } catch (const nvm::MediaFaultError&) {
        tableOk = false;
    }
    if (tableOk && (qt->count > QuarantineTable::kCapacity ||
                    quarantineChecksum(qt->count, qt->entries) !=
                        qt->checksum)) {
        tableOk = false;
    }
    if (!tableOk) {
        QuarantineTable fresh{};
        fresh.checksum = quarantineChecksum(0, fresh.entries);
        pool_.writeAt(h.quarOff, &fresh, sizeof(fresh));
        pool_.persist(pool_.at(h.quarOff), sizeof(fresh));
        st->quarantineTableReset = true;
    }
}

void
PmAllocator::armScanLocked(bool keepSession)
{
    free_.clear();
    bySize_.clear();
    if (!keepSession) {
        // Fresh-process recovery: pre-crash reservations and holds are
        // dead volatile state of the previous execution.
        reserved_.clear();
        holds_.clear();
    }
    builtAt_ = pool_.upsets();
    healMetaLocked(&lazyStats_);
    lazyScanDone_ = false;
    lazyCursor_ = 0;
    lazyInRun_ = false;
}

RebuildStats
PmAllocator::rebuild()
{
    std::lock_guard<std::mutex> g(mu_);
    // The salvage earlier pulls found folds into this pass's stats.
    armScanLocked(/* keepSession */ false);
    lazyStepLocked(~uint64_t{0});
    return std::exchange(lazyStats_, RebuildStats{});
}

void
PmAllocator::beginLazyRebuild()
{
    std::lock_guard<std::mutex> g(mu_);
    lazyStats_ = RebuildStats{};
    armScanLocked(/* keepSession */ false);
}

void
PmAllocator::beginSession()
{
    std::lock_guard<std::mutex> g(mu_);
    // Holds left behind mean an earlier session ended before its
    // slots healed: start over as after a crash.
    if (!staleLocked() && holds_.empty())
        return;
    lazyStats_ = RebuildStats{};
    armScanLocked(/* keepSession */ false);
}

RebuildStats
PmAllocator::finishScan()
{
    std::lock_guard<std::mutex> g(mu_);
    if (staleLocked())
        armScanLocked(/* keepSession */ true);
    lazyStepLocked(~uint64_t{0});
    return std::exchange(lazyStats_, RebuildStats{});
}

void
PmAllocator::lazyStepLocked(uint64_t chunks)
{
    const AllocHeader& h = hdr();
    uint64_t nGranules = h.dataBytes / kGranule;
    uint64_t usedBitmapBytes = (nGranules + 7) / 8;
    QuarantineTable* qt = quarTable();
    bool wroteBits = false;

    for (uint64_t step = 0;
         step < chunks && lazyCursor_ < usedBitmapBytes; step++) {
        uint64_t c = lazyCursor_;
        uint64_t n = std::min<uint64_t>(64, usedBitmapBytes - c);
        // Zeroed: a tail chunk (n < 64) leaves bytes past n that the
        // last word load reads before its mask applies.
        uint8_t local[64] = {};
        const void* src = pool_.at(h.bitmapOff + c);
        bool bad = pool_.isTainted(src, n);
        if (!bad) {
            try {
                pool_.checkRead(src, n);
            } catch (const nvm::MediaFaultError&) {
                bad = true;
            }
        }
        uint64_t firstG = c * 8;
        uint64_t lastG = std::min(firstG + n * 8, nGranules);
        if (bad) {
            // A chunk that cannot be read (poison) or was bit-flipped
            // (taint) cannot tell its allocated granules from its free
            // ones: all of them are quarantined and the chunk
            // rewritten all-ones (which also heals the line — fresh
            // stores make the cell trustworthy again).
            lazyStats_.poisonedChunks++;
            std::memset(local, 0xff, n);
            pool_.writeAt(h.bitmapOff + c, local, n);
            pool_.flush(src, n);
            wroteBits = true;
            quarantineLocked(h.dataOff + firstG * kGranule,
                             (lastG - firstG) * kGranule,
                             kQuarPoisonedBitmap);
            lazyStats_.quarantinedBlocks++;
            lazyStats_.quarantinedBytes += (lastG - firstG) * kGranule;
        } else {
            std::memcpy(local, src, n);
        }
        // Force quarantined granules allocated in the local copy.
        if (qt->count <= QuarantineTable::kCapacity) {
            for (uint32_t i = 0; i < qt->count; i++) {
                const QuarantineEntry& e = qt->entries[i];
                uint64_t lo = std::max(e.off, h.dataOff +
                                                  firstG * kGranule);
                uint64_t hi = std::min(e.off + e.bytes,
                                       h.dataOff + lastG * kGranule);
                for (uint64_t b = lo; b < hi; b += kGranule) {
                    uint64_t gi = (b - h.dataOff) / kGranule;
                    local[gi / 8 - c] |=
                        static_cast<uint8_t>(1u << (gi % 8));
                }
            }
        }
        // Walk the chunk a 64-bit word at a time. Inside an open free
        // run the next allocated bit ends it; outside one the next
        // free bit starts one. So an all-free word inside a run, or an
        // all-allocated word outside one, costs a single test. The
        // last word is masked to lastG: bits past the data area are
        // formatted zero and would read as free granules past the end.
        for (uint64_t w = firstG; w < lastG; w += 64) {
            uint64_t bits = 0;
            std::memcpy(&bits, local + (w - firstG) / 8, sizeof(bits));
            uint64_t live = ~uint64_t{0};
            if (lastG - w < 64)
                live = (uint64_t{1} << (lastG - w)) - 1;
            for (;;) {
                uint64_t edges = (lazyInRun_ ? bits : ~bits) & live;
                if (edges == 0)
                    break;
                int p = std::countr_zero(edges);
                uint64_t gi = w + static_cast<uint64_t>(p);
                if (lazyInRun_) {
                    insertFreeRunMaskedLocked(
                        h.dataOff + lazyRunStartG_ * kGranule,
                        (gi - lazyRunStartG_) * kGranule);
                    lazyInRun_ = false;
                } else {
                    lazyRunStartG_ = gi;
                    lazyInRun_ = true;
                }
                live &= ~uint64_t{1} << p;  // bits 0..p are consumed
            }
        }
        lazyCursor_ += n;
    }
    // Flush the still-open free run up to the cursor: on a mostly
    // empty pool the tail is one huge run that would otherwise only
    // become allocatable once the scan reaches the very end — turning
    // the first post-crash reserve() into a full-bitmap scan. The
    // continuation run opened by the next pull coalesces with this
    // extent in insertFreeExtentLocked, so no fragmentation survives.
    if (lazyInRun_ && lazyCursor_ < usedBitmapBytes) {
        uint64_t curG = std::min(lazyCursor_ * 8, nGranules);
        if (curG > lazyRunStartG_) {
            insertFreeRunMaskedLocked(
                h.dataOff + lazyRunStartG_ * kGranule,
                (curG - lazyRunStartG_) * kGranule);
            lazyInRun_ = false;
        }
    }
    if (wroteBits)
        pool_.fence();
    if (lazyCursor_ >= usedBitmapBytes) {
        if (lazyInRun_) {
            insertFreeRunMaskedLocked(
                h.dataOff + lazyRunStartG_ * kGranule,
                (nGranules - lazyRunStartG_) * kGranule);
            lazyInRun_ = false;
        }
        lazyScanDone_ = true;
    }
}

void
PmAllocator::addHold(unsigned tid, uint64_t off, uint64_t bytes)
{
    std::lock_guard<std::mutex> g(mu_);
    holds_.push_back({tid, off, bytes});
    syncRangeLocked(off, bytes);
}

void
PmAllocator::releaseHolds(unsigned tid)
{
    std::lock_guard<std::mutex> g(mu_);
    auto kept = std::stable_partition(
        holds_.begin(), holds_.end(),
        [&](const Hold& hd) { return hd.tid != tid; });
    std::vector<Hold> released(kept, holds_.end());
    holds_.erase(kept, holds_.end());
    // The slot's heal settled the released ranges' bits. After a crash
    // or fault since the map was built they are left to finishScan's
    // rescan instead: the bitmap may not be trusted here.
    if (staleLocked())
        return;
    for (const Hold& hd : released)
        syncRangeLocked(hd.off, hd.bytes);
}

size_t
PmAllocator::holdCount() const
{
    std::lock_guard<std::mutex> g(mu_);
    return holds_.size();
}

size_t
PmAllocator::freeBytes() const
{
    std::lock_guard<std::mutex> g(mu_);
    size_t sum = 0;
    for (const auto& [off, len] : free_)
        sum += len;
    return sum;
}

size_t
PmAllocator::freeExtents() const
{
    std::lock_guard<std::mutex> g(mu_);
    return free_.size();
}

}  // namespace cnvm::alloc
