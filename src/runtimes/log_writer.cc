#include "runtimes/log_writer.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "nvm/cache_sim.h"
#include "nvm/pool.h"
#include "runtimes/base.h"
#include "stats/counters.h"

namespace cnvm::rt {

void
LogWriter::sealForFence(unsigned /* tid */, uint8_t* /* area */,
                        size_t /* tail */)
{
}

namespace {

/** Classic per-entry append: write, flush, fence when required. */
class BaselineWriter : public LogWriter {
 public:
    explicit BaselineWriter(nvm::Pool& pool) : pool_(pool) {}

    LogWriterKind kind() const override
    {
        return LogWriterKind::baseline;
    }
    bool elidesRequiredFence() const override { return false; }

    void
    append(unsigned /* tid */, uint8_t* area, size_t tail, size_t need,
           const LogEntryHeader& h, const void* payload,
           LogFence fence) override
    {
        uint8_t* dst = area + tail;
        pool_.write(dst, &h, sizeof(h));
        pool_.write(dst + sizeof(h), payload, h.len);
        pool_.flush(dst, need);
        stats::bump(stats::Counter::logFlushes);
        if (fence == LogFence::required)
            pool_.fence();
    }

 private:
    nvm::Pool& pool_;
};

/**
 * pmembench-style zero-cached writer: entries are packed into a
 * per-slot DRAM window of 4 cache lines aligned to the log area's
 * line grid, and reach NVM as one coalesced write + flush when
 * the window fills (or at sealForFence). The window tracks the
 * caller's logical tail; any discontinuity — a new transaction
 * resetting its tail to 0, recovery, a writer swap — re-anchors the
 * window implicitly, so the writer needs no reset hooks.
 */
class ZeroCachedWriter : public LogWriter {
 public:
    static constexpr size_t kWinBytes = 4 * nvm::kCacheLine;

    explicit ZeroCachedWriter(nvm::Pool& pool)
        : pool_(pool), slots_(pool.maxThreads()) {}

    LogWriterKind kind() const override
    {
        return LogWriterKind::zerocached;
    }
    bool elidesRequiredFence() const override { return true; }

    void
    append(unsigned tid, uint8_t* area, size_t tail, size_t need,
           const LogEntryHeader& h, const void* payload,
           LogFence /* fence */) override
    {
        Slot& sl = slots_[tid];
        if (tail != sl.expectedTail)
            rebase(sl, area, tail);
        stage(sl, area, &h, sizeof(h));
        stage(sl, area, payload, h.len);
        size_t pad = need - sizeof(h) - h.len;
        if (pad > 0) {
            // Keep the window byte-exact with the logical tail (the
            // scanner skips the padding via its own 8-byte rounding).
            const uint8_t zeros[8] = {};
            stage(sl, area, zeros, pad);
        }
        sl.expectedTail = tail + need;
    }

    void
    sealForFence(unsigned tid, uint8_t* area, size_t tail) override
    {
        Slot& sl = slots_[tid];
        // A mismatched tail means nothing was staged for this
        // transaction (fresh slot, read-only tx, or a window already
        // retired by recovery) — there is nothing to seal, and
        // writing the stale window out could clobber live log bytes.
        if (tail != sl.expectedTail || tail == 0)
            return;
        writeOut(sl, area);
    }

 private:
    struct Slot {
        /** Logical tail the window is in sync with; anything else
         *  re-anchors. ~0 forces the first append to rebase. */
        size_t expectedTail = ~size_t{0};
        size_t winStart = 0;  ///< line-aligned area offset of buf[0]
        size_t fill = 0;      ///< staged bytes past winStart
        size_t written = 0;   ///< prefix of fill already copied out
        alignas(nvm::kCacheLine) uint8_t buf[kWinBytes];
    };

    void
    rebase(Slot& sl, uint8_t* area, size_t tail)
    {
        sl.winStart = tail & ~(nvm::kCacheLine - 1);
        sl.fill = tail - sl.winStart;
        sl.written = sl.fill;
        // Bytes of the window's head line that precede the tail are
        // already on media (an earlier entry's end); the window must
        // carry them so a full-line copy-out cannot clobber them.
        if (sl.fill > 0)
            std::memcpy(sl.buf, area + sl.winStart, sl.fill);
    }

    void
    stage(Slot& sl, uint8_t* area, const void* src, size_t n)
    {
        const auto* p = static_cast<const uint8_t*>(src);
        while (n > 0) {
            size_t take = kWinBytes - sl.fill;
            take = n < take ? n : take;
            std::memcpy(sl.buf + sl.fill, p, take);
            sl.fill += take;
            p += take;
            n -= take;
            if (sl.fill == kWinBytes) {
                writeOut(sl, area);
                sl.winStart += kWinBytes;
                sl.fill = 0;
                sl.written = 0;
            }
        }
    }

    /** Copy the window's unwritten suffix to NVM and flush it (no
     *  fence). Restarts from a line boundary so repeated seals of a
     *  growing window rewrite at most 63 stale-but-identical bytes. */
    void
    writeOut(Slot& sl, uint8_t* area)
    {
        if (sl.fill == sl.written)
            return;
        size_t from = sl.written & ~(nvm::kCacheLine - 1);
        pool_.write(area + sl.winStart + from, sl.buf + from,
                    sl.fill - from);
        pool_.flush(area + sl.winStart + from, sl.fill - from);
        stats::bump(stats::Counter::logFlushes);
        sl.written = sl.fill;
    }

    nvm::Pool& pool_;
    std::vector<Slot> slots_;
};

}  // namespace

const char*
logWriterName(LogWriterKind k)
{
    switch (k) {
      case LogWriterKind::baseline: return "baseline";
      case LogWriterKind::zerocached: return "zerocached";
    }
    return "unknown";
}

bool
logWriterKindFromName(const char* name, LogWriterKind* out)
{
    std::string s(name != nullptr ? name : "");
    if (s == "baseline") {
        *out = LogWriterKind::baseline;
    } else if (s == "zerocached" || s == "zero-cached") {
        *out = LogWriterKind::zerocached;
    } else {
        return false;
    }
    return true;
}

LogWriterKind
logWriterKindFromEnv()
{
    LogWriterKind k = LogWriterKind::baseline;
    if (const char* v = std::getenv("CNVM_LOG_WRITER"))
        (void)logWriterKindFromName(v, &k);
    return k;
}

std::unique_ptr<LogWriter>
makeLogWriter(LogWriterKind kind, nvm::Pool& pool)
{
    switch (kind) {
      case LogWriterKind::baseline:
        return std::make_unique<BaselineWriter>(pool);
      case LogWriterKind::zerocached:
        return std::make_unique<ZeroCachedWriter>(pool);
    }
    fatal("unknown log writer kind");
}

bool
selectLogWriter(txn::Runtime& rt, LogWriterKind kind)
{
    auto* base = dynamic_cast<RuntimeBase*>(&rt);
    if (base == nullptr)
        return false;
    base->setLogWriter(kind);
    return true;
}

}  // namespace cnvm::rt
