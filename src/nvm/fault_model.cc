#include "nvm/fault_model.h"

#include <algorithm>

#include "common/error.h"
#include "nvm/pool.h"
#include "stats/counters.h"

namespace cnvm::nvm {

uint32_t
parseFaultRegions(const std::string& list)
{
    uint32_t mask = 0;
    size_t pos = 0;
    while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string tok = list.substr(pos, comma - pos);
        if (tok == "header")
            mask |= kFaultHeader;
        else if (tok == "desc")
            mask |= kFaultDesc;
        else if (tok == "log")
            mask |= kFaultLog;
        else if (tok == "alloc")
            mask |= kFaultAllocMeta;
        else if (tok == "heap")
            mask |= kFaultHeap;
        else if (tok == "all")
            mask |= kFaultAllRegions;
        else if (!tok.empty())
            return 0;
        pos = comma + 1;
    }
    return mask;
}

std::string
faultRegionNames(uint32_t mask)
{
    std::string out;
    auto add = [&](uint32_t bit, const char* name) {
        if ((mask & bit) == 0)
            return;
        if (!out.empty())
            out += ',';
        out += name;
    };
    add(kFaultHeader, "header");
    add(kFaultDesc, "desc");
    add(kFaultLog, "log");
    add(kFaultAllocMeta, "alloc");
    add(kFaultHeap, "heap");
    return out;
}

FaultModel::FaultModel(const FaultConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + 0xbf58476dULL)
{
}

void
FaultModel::clearRegions()
{
    ranges_.clear();
}

void
FaultModel::addRegion(FaultRegion region, uint64_t lo, uint64_t hi)
{
    if (lo >= hi)
        return;
    ranges_.push_back(Range{region, lo, hi});
}

uint64_t
FaultModel::pickLine(const Pool* pool, bool skipVolatile)
{
    uint64_t totalLines = 0;
    for (const Range& r : ranges_) {
        if ((r.region & cfg_.regionMask) == 0)
            continue;
        totalLines += (r.hi - 1) / kCacheLine - r.lo / kCacheLine + 1;
    }
    if (totalLines == 0)
        return ~0ULL;
    // Bounded re-draws: a busy workload can have every line of a tiny
    // region volatile; give up rather than spin.
    for (int attempt = 0; attempt < 64; attempt++) {
        uint64_t idx = rng_.nextUint(totalLines);
        uint64_t line = ~0ULL;
        for (const Range& r : ranges_) {
            if ((r.region & cfg_.regionMask) == 0)
                continue;
            uint64_t first = r.lo / kCacheLine;
            uint64_t n = (r.hi - 1) / kCacheLine - first + 1;
            if (idx < n) {
                line = first + idx;
                break;
            }
            idx -= n;
        }
        if (line == ~0ULL)
            return ~0ULL;
        if (skipVolatile && pool != nullptr &&
            const_cast<Pool*>(pool)->cache().isVolatile(line)) {
            continue;
        }
        return line;
    }
    return ~0ULL;
}

void
FaultModel::flipBit(Pool& pool, uint64_t off, unsigned bit)
{
    // Silent corruption happens *underneath* the software stack: mutate
    // the mapped byte directly, bypassing write interposition (no
    // dirty-line tracking, no noteWrite un-taint).
    pool.base()[off] ^= static_cast<uint8_t>(1u << (bit & 7));
    taint_.insert(off / kCacheLine);
    flips_++;
    stats::bump(stats::Counter::mediaBitFlips);
}

void
FaultModel::poisonAt(uint64_t off, int transientCount)
{
    poison_[off / kCacheLine] = transientCount;
    if (transientCount < 0) {
        poisons_++;
        stats::bump(stats::Counter::mediaPoisons);
    } else {
        transients_++;
        stats::bump(stats::Counter::mediaTransients);
    }
}

void
FaultModel::injectCounts(Pool& pool, uint32_t flips, uint32_t poisons,
                         uint32_t transients)
{
    for (uint32_t i = 0; i < flips; i++) {
        uint64_t line = pickLine(&pool, /* skipVolatile */ true);
        if (line == ~0ULL)
            break;
        uint64_t off =
            line * kCacheLine + rng_.nextUint(kCacheLine);
        if (off >= pool.size())
            continue;
        flipBit(pool, off, static_cast<unsigned>(rng_.nextUint(8)));
    }
    for (uint32_t i = 0; i < poisons; i++) {
        uint64_t line = pickLine(&pool, /* skipVolatile */ false);
        if (line == ~0ULL)
            break;
        poisonAt(line * kCacheLine, -1);
    }
    for (uint32_t i = 0; i < transients; i++) {
        uint64_t line = pickLine(&pool, /* skipVolatile */ false);
        if (line == ~0ULL)
            break;
        // 1..3 failing reads: recoverable within the default retry
        // budget, so an un-tuned transient always succeeds on retry.
        poisonAt(line * kCacheLine,
                 1 + static_cast<int>(rng_.nextUint(3)));
    }
}

void
FaultModel::inject(Pool& pool)
{
    injectCounts(pool, cfg_.bitFlips, cfg_.poisons, cfg_.transients);
}

void
FaultModel::onRead(uint64_t off, size_t n)
{
    if (n == 0 || poison_.empty())
        return;
    uint64_t first = off / kCacheLine;
    uint64_t last = (off + n - 1) / kCacheLine;
    for (uint64_t ln = first; ln <= last; ln++) {
        auto it = poison_.find(ln);
        if (it == poison_.end())
            continue;
        poisonReads_++;
        stats::bump(stats::Counter::mediaPoisonReads);
        if (it->second < 0) {
            throw MediaFaultError(
                ln * kCacheLine, false,
                strprintf("uncorrectable media error reading pool "
                          "offset %llu",
                          static_cast<unsigned long long>(
                              ln * kCacheLine)));
        }
        // Transient: retry up to maxRetries times. Each retry
        // "heals" one failing read; success once they run out.
        bool recovered = false;
        for (unsigned r = 0; r < cfg_.maxRetries; r++) {
            retries_++;
            stats::bump(stats::Counter::mediaRetries);
            if (--it->second <= 0) {
                poison_.erase(it);
                recovered = true;
                break;
            }
        }
        if (!recovered) {
            throw MediaFaultError(
                ln * kCacheLine, true,
                strprintf("transient media fault at pool offset %llu "
                          "persisted past %u retries",
                          static_cast<unsigned long long>(
                              ln * kCacheLine),
                          cfg_.maxRetries));
        }
    }
}

void
FaultModel::noteWrite(uint64_t off, size_t n)
{
    if (n == 0 || (poison_.empty() && taint_.empty()))
        return;
    uint64_t first = off / kCacheLine;
    uint64_t last = (off + n - 1) / kCacheLine;
    for (uint64_t ln = first; ln <= last; ln++) {
        poison_.erase(ln);
        taint_.erase(ln);
    }
}

bool
FaultModel::tainted(uint64_t off, size_t n) const
{
    if (n == 0 || taint_.empty())
        return false;
    uint64_t first = off / kCacheLine;
    uint64_t last = (off + n - 1) / kCacheLine;
    for (uint64_t ln = first; ln <= last; ln++) {
        if (taint_.count(ln) != 0)
            return true;
    }
    return false;
}

bool
FaultModel::poisoned(uint64_t off, size_t n) const
{
    if (n == 0 || poison_.empty())
        return false;
    uint64_t first = off / kCacheLine;
    uint64_t last = (off + n - 1) / kCacheLine;
    for (uint64_t ln = first; ln <= last; ln++) {
        if (poison_.count(ln) != 0)
            return true;
    }
    return false;
}

std::vector<uint64_t>
FaultModel::taintedLines() const
{
    std::vector<uint64_t> out(taint_.begin(), taint_.end());
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<uint64_t>
FaultModel::badLines(uint64_t off, size_t n) const
{
    std::vector<uint64_t> out;
    if (n == 0)
        return out;
    uint64_t first = off / kCacheLine;
    uint64_t last = (off + n - 1) / kCacheLine;
    for (const auto& entry : poison_) {
        if (entry.first >= first && entry.first <= last)
            out.push_back(entry.first);
    }
    for (uint64_t ln : taint_) {
        if (ln >= first && ln <= last)
            out.push_back(ln);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

}  // namespace cnvm::nvm
