/**
 * @file
 * The persistent allocator's volatile free map: coalesced free extents,
 * listed by offset and indexed by length for best fit, in flat
 * containers that keep their capacity across scans and commits. A
 * restart's scan lists each heap hole without a heap allocation, and
 * so does a warm commit that allocates or frees.
 *
 * Allocation rule: take() serves a request from the smallest extent
 * that fits and, among extents of equal length, from the one listed
 * first. An extent is listed when it enters the map or changes length
 * (a coalesce, a carve or a take puts what is left at the back of its
 * length). This is the order a length-keyed std::multimap gave.
 *
 * Layout:
 *  - `byOff_`: one {offset, node} entry per extent, in offset order.
 *    The bitmap scan adds its runs in offset order, so a restart
 *    fills it at the back.
 *  - `nodes_`: a slab of nodes, one per extent, holding its offset,
 *    its length and its links in a FIFO list of its size class (a
 *    ring: the head's `prev` is the tail). Every
 *    extent is a whole number of 16-byte granules: lengths of 1 to
 *    kExactGranules granules have one class each, whose head is the
 *    best fit; longer ones share one class per power of two, walked
 *    for the smallest fit (the heap's tail and large holes: few).
 *  - `nonEmpty_`: one bit per class, so a best fit finds the first
 *    class that can serve it with a few word scans.
 */
#ifndef CNVM_ALLOC_FREE_MAP_H
#define CNVM_ALLOC_FREE_MAP_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cnvm::alloc {

/** The allocation unit: every block and every extent is a multiple. */
constexpr uint64_t kGranule = 16;

class FreeMap {
 public:
    FreeMap();

    /** Forget every extent; keep the capacity. Costs one step per
     *  non-empty class, not per class. */
    void clear();

    /** Add [off, off+len), which no extent overlaps, coalescing with
     *  its neighbours. `len` is a non-zero multiple of kGranule. */
    void insert(uint64_t off, uint64_t len);

    /** Remove [off, off+len), splitting the extents it cuts. */
    void carve(uint64_t off, uint64_t len);

    /**
     * Take `len` bytes from the front of the smallest extent that fits,
     * the one listed first among equal lengths.
     * @return their offset, or 0 if no extent fits.
     */
    uint64_t take(uint64_t len);

    /** Does any extent overlap [off, off+len)? */
    bool overlaps(uint64_t off, uint64_t len) const;

    size_t extents() const { return byOff_.size(); }
    uint64_t bytes() const { return bytes_; }

 private:
    static constexpr uint32_t kNone = ~uint32_t{0};
    static constexpr uint64_t kExactGranules = 256;
    /** The exact classes, then one per bit width up to 64. */
    static constexpr unsigned kClasses = kExactGranules + 64;

    struct Node {
        uint64_t off;
        uint64_t len;
        uint32_t prev;   ///< in its class's ring
        uint32_t next;   ///< in its class's ring; chains spare slots too
    };
    struct Entry {
        uint64_t off;
        uint32_t node;
    };

    static unsigned classOf(uint64_t len);
    uint64_t lenAt(size_t i) const { return nodes_[byOff_[i].node].len; }
    /** The first entry at or past `off`. */
    size_t lowerBound(uint64_t off) const;
    /** List an extent at the back of its class. @return its node. */
    uint32_t link(uint64_t off, uint64_t len);
    void unlink(uint32_t n);
    /** The best fit for `len`, or kNone. */
    uint32_t bestFit(uint64_t len) const;
    /** The smallest extent of `cls` that fits `len`, the first listed
     *  among equals, or kNone. */
    uint32_t smallestIn(unsigned cls, uint64_t len) const;
    /** The first non-empty class at or past `cls`, or kClasses. */
    unsigned nextClass(unsigned cls) const;

    std::vector<Entry> byOff_;
    std::vector<Node> nodes_;
    uint32_t spare_ = kNone;      ///< first free slot of nodes_
    std::array<uint32_t, kClasses> head_;  ///< kNone where empty
    std::array<uint64_t, kClasses / 64> nonEmpty_{};
    uint64_t bytes_ = 0;
};

}  // namespace cnvm::alloc

#endif  // CNVM_ALLOC_FREE_MAP_H
