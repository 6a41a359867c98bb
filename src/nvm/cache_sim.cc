#include "nvm/cache_sim.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace cnvm::nvm {

namespace {

/** Source of CacheSim ids: never reused, so a PersistDomain's cached
 *  state for a destroyed sim can never match a new one. */
std::atomic<uint64_t> gSimIds{0};

uint64_t
mixLine(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
    return x;
}

}  // namespace

CacheSim::CacheSim(uint8_t* base)
    : base_(base),
      id_(gSimIds.fetch_add(1, std::memory_order_relaxed) + 1)
{
}

CacheSim::Domain&
CacheSim::domainSlow(PersistDomain& k)
{
    uint64_t key = k.id();
    std::lock_guard<std::mutex> g(domainsMu_);
    Domain* d = nullptr;
    for (const auto& p : domains_) {
        if (p->key == key) {
            d = p.get();
            break;
        }
    }
    if (d == nullptr) {
        size_t idx = domains_.size();
        domains_.push_back(std::make_unique<Domain>());
        d = domains_.back().get();
        d->key = key;
        // Tags past the field's range fall back to "several"/"any",
        // which only costs extra invalidations and list entries.
        d->cacheTag = static_cast<uint8_t>(
            std::min<size_t>(idx + 1, kManyCachers));
        d->flushTag = static_cast<uint16_t>(
            std::min<size_t>(idx + 1, kAnyFlusher));
    }
    k.simId_ = id_;
    k.state_ = d;
    return *d;
}

uint64_t
CacheSim::writes() const
{
    std::lock_guard<std::mutex> g(domainsMu_);
    uint64_t n = 0;
    for (const auto& d : domains_)
        n += d->writes.load(std::memory_order_relaxed);
    return n;
}

size_t
CacheSim::volatileLines() const
{
    std::lock_guard<std::mutex> g(domainsMu_);
    // Lines leave the table (retired, dropped) only after they entered
    // it, under the same shard lock. Reading the leaving counts first,
    // with acquire, makes every entry they cover visible to the
    // dirtied sum read next, so the difference never goes negative.
    uint64_t gone = 0;
    for (const auto& d : domains_)
        gone += d->retired.load(std::memory_order_acquire);
    gone += dropped_.load(std::memory_order_acquire);
    uint64_t in = 0;
    for (const auto& d : domains_)
        in += d->dirtied.load(std::memory_order_relaxed);
    return static_cast<size_t>(in - gone);
}

size_t
CacheSim::slotCapacity() const
{
    size_t n = 0;
    for (const Shard& sh : shards_) {
        std::lock_guard<std::mutex> g(sh.mu);
        n += sh.slots.size();
    }
    return n;
}

CacheSim::Slot*
CacheSim::findSlot(Shard& sh, uint64_t ln)
{
    if (sh.slots.empty())
        return nullptr;
    size_t mask = sh.slots.size() - 1;
    size_t i = mixLine(ln) & mask;
    while (true) {
        Slot& s = sh.slots[i];
        if (s.key == 0)
            return nullptr;
        if (s.key == ln + 1)
            return &s;
        i = (i + 1) & mask;
    }
}

void
CacheSim::eraseSlot(Shard& sh, Slot* s)
{
    size_t mask = sh.slots.size() - 1;
    auto hole = static_cast<size_t>(s - sh.slots.data());
    // Walk the rest of the probe chain: an entry whose home lies
    // cyclically outside (hole, j] was placed past the hole and would
    // be unreachable once the hole empties, so it moves into the hole.
    for (size_t j = (hole + 1) & mask; sh.slots[j].key != 0;
         j = (j + 1) & mask) {
        size_t home = mixLine(sh.slots[j].key - 1) & mask;
        bool reachable = hole <= j ? hole < home && home <= j
                                   : hole < home || home <= j;
        if (!reachable) {
            sh.slots[hole] = sh.slots[j];
            hole = j;
        }
    }
    sh.slots[hole].key = 0;
    sh.slots[hole].state = kEmpty;
    sh.used--;
}

void
CacheSim::resizeShard(Shard& sh, size_t cap)
{
    std::vector<Slot> old = std::move(sh.slots);
    sh.slots = std::vector<Slot>(cap);
    size_t mask = cap - 1;
    for (const Slot& s : old) {
        if (s.key == 0)
            continue;
        size_t i = mixLine(s.key - 1) & mask;
        while (sh.slots[i].key != 0)
            i = (i + 1) & mask;
        sh.slots[i] = s;
    }
}

CacheSim::Slot&
CacheSim::dirtyLocked(Domain& d, Shard& sh, uint64_t ln)
{
    if ((sh.used + 1) * 10 > sh.slots.size() * 7)
        resizeShard(sh, sh.slots.empty() ? kInitialSlots
                                         : sh.slots.size() * 2);
    size_t mask = sh.slots.size() - 1;
    size_t i = mixLine(ln) & mask;
    while (true) {
        Slot& s = sh.slots[i];
        if (s.key == 0) {
            s.key = ln + 1;
            s.state = kDirty;
            s.seq = ++sh.seq;
            s.flusher = 0;
            s.cacher = 0;
            std::memcpy(s.snapshot.data(), base_ + ln * kCacheLine,
                        kCacheLine);
            sh.used++;
            d.dirtied.store(
                d.dirtied.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
            return s;
        }
        if (s.key == ln + 1) {
            // A new store re-dirties a clwb'd line; clwb without a
            // fence gives no durability, so the original snapshot
            // stays the revert target. The new sequence voids every
            // domain's listing of the earlier clwb.
            if (s.state == kPending) {
                s.state = kDirty;
                s.seq = ++sh.seq;
                s.flusher = 0;
            }
            return s;
        }
        i = (i + 1) & mask;
    }
}

void
CacheSim::willWriteSlow(Domain& d, uint64_t first, uint64_t last,
                        uint64_t g)
{
    LineObserver* obs = lineObs_.load(std::memory_order_relaxed);
    uint64_t ln = first;
    while (ln <= last) {
        Shard& sh = shardOf(ln);
        std::lock_guard<std::mutex> lk(sh.mu);
        do {
            if (obs != nullptr)
                obs->lineDirtied(ln);
            Slot& s = dirtyLocked(d, sh, ln);
            if (obs == nullptr) {
                // Tagging with the pre-lock generation keeps the way
                // safe: if a cross-domain flush raced us, the
                // generation already moved past `g` and the way never
                // validates.
                Domain::Way& w = d.ways[ln & (kWays - 1)];
                w.line1 = ln + 1;
                w.gen = g;
                if (s.cacher == 0)
                    s.cacher = d.cacheTag;
                else if (s.cacher != d.cacheTag)
                    s.cacher = kManyCachers;
            }
            ln++;
        } while (ln <= last && &shardOf(ln) == &sh);
    }
}

void
CacheSim::flushLocked(Domain& d, Shard& sh, uint64_t ln,
                      LineObserver* obs, bool& cross)
{
    Slot* s = findSlot(sh, ln);
    if (s == nullptr)
        return;
    if (s->state == kDirty) {
        s->state = kPending;
        // The line leaves the dirty state: no way may validate it
        // any longer. Ours is cleared here; another domain's needs a
        // generation bump.
        if (s->cacher != 0 &&
            (s->cacher != d.cacheTag || d.cacheTag == kManyCachers))
            cross = true;
        s->cacher = 0;
        Domain::Way& w = d.ways[ln & (kWays - 1)];
        if (w.line1 == ln + 1)
            w.line1 = 0;
        if (obs != nullptr)
            obs->lineFlushed(ln);
    } else if (s->flusher == d.flushTag && d.flushTag != kAnyFlusher) {
        return;  // already listed by this domain
    }
    // A pending line another domain flushed is listed here too: this
    // domain's clwb makes it durable at this domain's fence.
    s->flusher = d.flushTag;
    size_t idx = static_cast<size_t>(&sh - shards_.data());
    if (d.pending[idx].empty())
        d.pendingShards |= uint64_t{1} << idx;
    d.pending[idx].push_back({ln, s->seq});
}

void
CacheSim::flush(uint64_t off, size_t len)
{
    if (len == 0)
        return;
    Domain& d = domain();
    uint64_t first = off / kCacheLine;
    uint64_t last = (off + len - 1) / kCacheLine;
    uint64_t nlines = last - first + 1;
    LineObserver* obs = lineObs_.load(std::memory_order_relaxed);
    bool cross = false;
    uint64_t ln = first;
    while (ln <= last) {
        Shard& sh = shardOf(ln);
        std::lock_guard<std::mutex> g(sh.mu);
        do {
            flushLocked(d, sh, ln, obs, cross);
            ln++;
        } while (ln <= last && &shardOf(ln) == &sh);
    }
    if (cross)
        bumpGen();
    notifyFlush(nlines, nlines * kCacheLine);
}

void
CacheSim::flushLines(uint64_t* lines, size_t n)
{
    if (n == 0)
        return;
    Domain& d = domain();
    std::sort(lines, lines + n);
    n = static_cast<size_t>(std::unique(lines, lines + n) - lines);
    LineObserver* obs = lineObs_.load(std::memory_order_relaxed);
    bool cross = false;
    size_t i = 0;
    while (i < n) {
        Shard& sh = shardOf(lines[i]);
        std::lock_guard<std::mutex> g(sh.mu);
        do {
            flushLocked(d, sh, lines[i], obs, cross);
            i++;
        } while (i < n && &shardOf(lines[i]) == &sh);
    }
    if (cross)
        bumpGen();
    // Adjacent lines coalesce into one clwb burst each; scattered
    // lines remain independent (overlapping) flushes for the timing
    // model, like back-to-back clwbs on hardware.
    size_t runStart = 0;
    for (size_t j = 1; j <= n; j++) {
        if (j == n || lines[j] != lines[j - 1] + 1) {
            uint64_t runLen = j - runStart;
            notifyFlush(runLen, runLen * kCacheLine);
            runStart = j;
        }
    }
}

void
CacheSim::fence()
{
    Domain& d = domain();
    LineObserver* obs = lineObs_.load(std::memory_order_relaxed);
    // Only visit shards this domain flushed into since its last
    // fence; a fence with nothing outstanding touches no locks.
    uint64_t mask = d.pendingShards;
    d.pendingShards = 0;
    uint64_t retired = 0;
    while (mask != 0) {
        auto idx = static_cast<size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        Shard& sh = shards_[idx];
        std::vector<PendingLine>& list = d.pending[idx];
        std::lock_guard<std::mutex> g(sh.mu);
        for (const PendingLine& p : list) {
            Slot* s = findSlot(sh, p.line);
            // A line re-dirtied since this domain's clwb, already
            // retired by another domain's fence, or listed twice is
            // skipped; only a line still pending from this clwb
            // retires.
            if (s != nullptr && s->state == kPending && s->seq == p.seq) {
                eraseSlot(sh, s);
                retired++;
            }
        }
        list.clear();
        // Size the table to the lines in flight: a shard the fence
        // left at 1/8 load or less shrinks to a quarter full (at
        // least its initial size), so one burst does not tax every
        // later probe and crash sweep.
        size_t cap = sh.slots.size();
        if (cap > kInitialSlots && sh.used * 8 <= cap)
            resizeShard(sh, std::max(kInitialSlots,
                                     std::bit_ceil(sh.used * 4)));
    }
    if (retired != 0)
        d.retired.store(d.retired.load(std::memory_order_relaxed) +
                            retired,
                        std::memory_order_release);
    if (obs != nullptr)
        obs->fenceRetired();
    notifyFence();
}

size_t
CacheSim::crashImpl(Xorshift* rng, const CrashParams& p)
{
    size_t reverted = 0;
    uint64_t dropped = 0;
    for (Shard& sh : shards_) {
        std::lock_guard<std::mutex> g(sh.mu);
        for (Slot& s : sh.slots) {
            if (s.key == 0)
                continue;
            uint64_t ln = s.key - 1;
            uint8_t* mem = base_ + ln * kCacheLine;
            double survival = s.state == kPending ? p.pendingSurvival
                                                  : p.dirtySurvival;
            for (size_t w = 0; w < kCacheLine; w += 8) {
                bool survives =
                    rng != nullptr && rng->nextBool(survival);
                if (!survives) {
                    if (std::memcmp(mem + w, s.snapshot.data() + w,
                                    8) != 0) {
                        std::memcpy(mem + w, s.snapshot.data() + w, 8);
                        reverted++;
                    }
                }
            }
        }
        dropped += sh.used;
        // Domains' pending listings go stale with their slots: the
        // shard's sequence keeps counting, so none matches again.
        if (sh.slots.size() > kInitialSlots)
            sh.slots = std::vector<Slot>(kInitialSlots);
        else
            std::fill(sh.slots.begin(), sh.slots.end(), Slot{});
        sh.used = 0;
    }
    dropped_.fetch_add(dropped, std::memory_order_release);
    crashes_.fetch_add(1, std::memory_order_relaxed);
    bumpGen();
    if (auto* obs = lineObs_.load(std::memory_order_relaxed))
        obs->trackingReset();
    return reverted;
}

size_t
CacheSim::crash(Xorshift& rng, const CrashParams& p)
{
    return crashImpl(&rng, p);
}

size_t
CacheSim::crashAllLost()
{
    CrashParams p;
    return crashImpl(nullptr, p);
}

bool
CacheSim::isVolatile(uint64_t line)
{
    Shard& sh = shardOf(line);
    std::lock_guard<std::mutex> g(sh.mu);
    return findSlot(sh, line) != nullptr;
}

void
CacheSim::setLineObserver(LineObserver* obs)
{
    lineObs_.store(obs, std::memory_order_relaxed);
    // Block the fast path: no way survives the bump, and no new ways
    // are inserted while an observer is present, so it sees every
    // subsequent transition.
    bumpGen();
}

}  // namespace cnvm::nvm
