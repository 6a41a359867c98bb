/**
 * @file
 * Open-addressing hash map from any uint64 key to a small state
 * bitmask, with O(1) clear.
 *
 * The runtimes key it two ways per transaction slot. Keyed by 8-byte
 * block number, one probe returns a mutable state byte holding every
 * per-block fact a protocol needs for its clobber/suppress/log
 * decision (read, written, logged, and the iDO per-region bits), where
 * separate sets would cost one probe each. Keyed by cache-line number,
 * it dedupes the commit-time dirty-line list.
 *
 * Transactions are short and frequent, so clearing bumps an epoch tag
 * instead of touching every bucket; a bucket is live iff its epoch
 * matches, so key 0 is a valid key.
 */
#ifndef CNVM_COMMON_BLOCK_MAP_H
#define CNVM_COMMON_BLOCK_MAP_H

#include <cstdint>
#include <vector>

namespace cnvm {

class BlockMap {
 public:
    /** Per-key state bits (meaning assigned by the runtimes). */
    enum : uint8_t {
        kRead = 1,           ///< read before first written (clobber input)
        kWritten = 2,        ///< written (incl. fresh allocations)
        kLogged = 4,         ///< already undo-logged (PMDK range dedup)
        kRegionRead = 8,     ///< iDO: read in the current region
        kRegionWritten = 16  ///< iDO: written in the current region
    };
    /**
     * The region bits are scoped to an iDO idempotent region, not the
     * transaction: clearRegionBits() drops them map-wide in O(1) via a
     * second epoch tag (boundaries are per-store-site frequent, so an
     * O(capacity) sweep there would dominate the whole store path).
     */
    static constexpr uint8_t kRegionBits = kRegionRead | kRegionWritten;

    explicit BlockMap(size_t initialCapacity = 1024)
    {
        size_t cap = 16;
        while (cap < initialCapacity)
            cap <<= 1;
        buckets_.resize(cap);
    }

    /**
     * The one-probe hot path: state byte for `key`, inserting an empty
     * (state 0) entry if absent. The reference is invalidated by any
     * later ref() call (growth) and by clear().
     */
    uint8_t&
    ref(uint64_t key)
    {
        if ((count_ + 1) * 10 > buckets_.size() * 7)
            grow();
        size_t mask = buckets_.size() - 1;
        size_t i = mix(key) & mask;
        while (true) {
            Bucket& b = buckets_[i];
            if (b.epoch != epoch_) {
                b.key = key;
                b.epoch = epoch_;
                b.regionEpoch = regionEpoch_;
                b.state = 0;
                count_++;
                return b.state;
            }
            if (b.key == key) {
                if (b.regionEpoch != regionEpoch_) {
                    b.state &= static_cast<uint8_t>(~kRegionBits);
                    b.regionEpoch = regionEpoch_;
                }
                return b.state;
            }
            i = (i + 1) & mask;
        }
    }

    /** State of `key`; 0 if absent (absent and all-clear look alike). */
    uint8_t
    get(uint64_t key) const
    {
        size_t mask = buckets_.size() - 1;
        size_t i = mix(key) & mask;
        while (true) {
            const Bucket& b = buckets_[i];
            if (b.epoch != epoch_)
                return 0;
            if (b.key == key) {
                uint8_t st = b.state;
                if (b.regionEpoch != regionEpoch_)
                    st &= static_cast<uint8_t>(~kRegionBits);
                return st;
            }
            i = (i + 1) & mask;
        }
    }

    void
    clear()
    {
        epoch_++;
        count_ = 0;
        if (epoch_ == 0) {
            // Epoch wrapped: hard-reset every bucket once per 2^32
            // clears.
            for (auto& b : buckets_)
                b = Bucket{};
            epoch_ = 1;
        }
    }

    /**
     * Strip kRegionRead|kRegionWritten from every live entry in O(1)
     * (the iDO region-boundary reset): bump the region epoch; stale
     * region bits are masked lazily on the next access to each entry.
     */
    void
    clearRegionBits()
    {
        regionEpoch_++;
        if (regionEpoch_ == 0) {
            // Region epoch wrapped: hard-strip once per 2^32 regions.
            for (auto& b : buckets_) {
                b.state &= static_cast<uint8_t>(~kRegionBits);
                b.regionEpoch = 0;
            }
            regionEpoch_ = 1;
        }
    }

    size_t size() const { return count_; }
    size_t capacity() const { return buckets_.size(); }

    /** Visit every live (key, state) pair. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const auto& b : buckets_) {
            if (b.epoch == epoch_) {
                uint8_t st = b.state;
                if (b.regionEpoch != regionEpoch_)
                    st &= static_cast<uint8_t>(~kRegionBits);
                fn(b.key, st);
            }
        }
    }

    /**
     * Test-only: jump the epoch counter to its maximum (re-tagging the
     * live entries so contents are preserved) so the next clear()
     * exercises the wrap hard-reset branch, otherwise reached once per
     * 2^32 transactions.
     */
    void
    forceWrap()
    {
        for (auto& b : buckets_) {
            if (b.epoch == epoch_)
                b.epoch = ~0u;
        }
        epoch_ = ~0u;
    }

 private:
    struct Bucket {
        uint64_t key = 0;
        uint32_t epoch = 0;
        uint32_t regionEpoch = 0;
        uint8_t state = 0;
    };

    static uint64_t
    mix(uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 29;
        return x;
    }

    void
    grow()
    {
        std::vector<Bucket> old = std::move(buckets_);
        buckets_.assign(old.size() * 2, Bucket{});
        uint32_t oldEpoch = epoch_;
        size_t mask = buckets_.size() - 1;
        count_ = 0;
        for (const auto& ob : old) {
            if (ob.epoch != oldEpoch)
                continue;
            size_t i = mix(ob.key) & mask;
            while (buckets_[i].epoch == epoch_)
                i = (i + 1) & mask;
            buckets_[i].key = ob.key;
            buckets_[i].epoch = epoch_;
            buckets_[i].regionEpoch = ob.regionEpoch;
            buckets_[i].state = ob.state;
            count_++;
        }
    }

    std::vector<Bucket> buckets_;
    uint32_t epoch_ = 1;
    uint32_t regionEpoch_ = 1;
    size_t count_ = 0;
};

}  // namespace cnvm

#endif  // CNVM_COMMON_BLOCK_MAP_H
