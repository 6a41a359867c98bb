#include "alloc/free_map.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace cnvm::alloc {

FreeMap::FreeMap()
{
    head_.fill(kNone);
}

void
FreeMap::clear()
{
    for (unsigned c = nextClass(0); c < kClasses; c = nextClass(c + 1))
        head_[c] = kNone;
    nonEmpty_.fill(0);
    byOff_.clear();
    nodes_.clear();
    spare_ = kNone;
    bytes_ = 0;
}

unsigned
FreeMap::classOf(uint64_t len)
{
    uint64_t g = len / kGranule;
    if (g <= kExactGranules)
        return static_cast<unsigned>(g - 1);
    return static_cast<unsigned>(kExactGranules + std::bit_width(g) -
                                 std::bit_width(kExactGranules));
}

size_t
FreeMap::lowerBound(uint64_t off) const
{
    auto it = std::lower_bound(
        byOff_.begin(), byOff_.end(), off,
        [](const Entry& e, uint64_t o) { return e.off < o; });
    return static_cast<size_t>(it - byOff_.begin());
}

uint32_t
FreeMap::link(uint64_t off, uint64_t len)
{
    uint32_t n = spare_;
    if (n != kNone) {
        spare_ = nodes_[n].next;
    } else {
        CNVM_CHECK(nodes_.size() < kNone, "free map: too many extents");
        n = static_cast<uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    unsigned c = classOf(len);
    uint32_t head = head_[c];
    if (head == kNone) {
        nodes_[n] = Node{off, len, n, n};
        head_[c] = n;
        nonEmpty_[c / 64] |= uint64_t{1} << (c % 64);
    } else {
        uint32_t tail = nodes_[head].prev;
        nodes_[n] = Node{off, len, tail, head};
        nodes_[tail].next = n;
        nodes_[head].prev = n;
    }
    bytes_ += len;
    return n;
}

void
FreeMap::unlink(uint32_t n)
{
    Node& nd = nodes_[n];
    unsigned c = classOf(nd.len);
    if (nd.next == n) {
        head_[c] = kNone;
        nonEmpty_[c / 64] &= ~(uint64_t{1} << (c % 64));
    } else {
        nodes_[nd.prev].next = nd.next;
        nodes_[nd.next].prev = nd.prev;
        if (head_[c] == n)
            head_[c] = nd.next;
    }
    bytes_ -= nd.len;
    nd.next = spare_;
    spare_ = n;
}

unsigned
FreeMap::nextClass(unsigned cls) const
{
    for (unsigned w = cls / 64; w < nonEmpty_.size(); w++) {
        uint64_t bits = nonEmpty_[w];
        if (w == cls / 64)
            bits &= ~uint64_t{0} << (cls % 64);
        if (bits != 0)
            return w * 64 + static_cast<unsigned>(std::countr_zero(bits));
    }
    return kClasses;
}

uint32_t
FreeMap::smallestIn(unsigned cls, uint64_t len) const
{
    uint32_t best = kNone;
    uint32_t n = head_[cls];
    if (n == kNone)
        return kNone;
    do {
        uint64_t l = nodes_[n].len;
        if (l >= len && (best == kNone || l < nodes_[best].len))
            best = n;
        n = nodes_[n].next;
    } while (n != head_[cls]);
    return best;
}

uint32_t
FreeMap::bestFit(uint64_t len) const
{
    unsigned c = classOf(len);
    if (c >= kExactGranules) {
        // A shared class also holds lengths below `len`.
        uint32_t n = smallestIn(c, len);
        if (n != kNone)
            return n;
        c++;
    }
    // Every extent of a later class fits.
    c = nextClass(c);
    if (c == kClasses)
        return kNone;
    return c < kExactGranules ? head_[c] : smallestIn(c, len);
}

void
FreeMap::insert(uint64_t off, uint64_t len)
{
    // The scan adds its runs in offset order: at the back.
    size_t i = byOff_.empty() || byOff_.back().off < off ? byOff_.size()
                                                          : lowerBound(off);
    bool joinPrev = i > 0 && byOff_[i - 1].off + lenAt(i - 1) == off;
    bool joinNext = i < byOff_.size() && off + len == byOff_[i].off;
    if (joinPrev) {
        off = byOff_[i - 1].off;
        len += lenAt(i - 1);
        unlink(byOff_[i - 1].node);
    }
    if (joinNext) {
        len += lenAt(i);
        unlink(byOff_[i].node);
    }
    Entry e{off, link(off, len)};
    if (joinPrev && joinNext) {
        byOff_[i - 1] = e;
        byOff_.erase(byOff_.begin() + static_cast<ptrdiff_t>(i));
    } else if (joinPrev) {
        byOff_[i - 1] = e;
    } else if (joinNext) {
        byOff_[i] = e;
    } else {
        byOff_.insert(byOff_.begin() + static_cast<ptrdiff_t>(i), e);
    }
}

void
FreeMap::carve(uint64_t off, uint64_t len)
{
    uint64_t end = off + len;
    size_t i = lowerBound(off);
    if (i > 0 && byOff_[i - 1].off + lenAt(i - 1) > off)
        i--;
    // Unlist every extent the range cuts; only the first can reach
    // below it and only the last past it.
    size_t j = i;
    uint64_t leftLo = off;
    uint64_t rightHi = end;
    for (; j < byOff_.size() && byOff_[j].off < end; j++) {
        uint64_t lo = byOff_[j].off;
        uint64_t hi = lo + lenAt(j);
        unlink(byOff_[j].node);
        leftLo = std::min(leftLo, lo);
        rightHi = std::max(rightHi, hi);
    }
    if (j == i)
        return;
    // The pieces left either side touch the carved range, not another
    // extent: no coalescing to do. Left, then right, as listed.
    size_t k = i;
    if (leftLo < off)
        byOff_[k++] = Entry{leftLo, link(leftLo, off - leftLo)};
    if (end < rightHi) {
        Entry e{end, link(end, rightHi - end)};
        if (k < j) {
            byOff_[k++] = e;
        } else {
            byOff_.insert(byOff_.begin() + static_cast<ptrdiff_t>(k++), e);
            j++;
        }
    }
    byOff_.erase(byOff_.begin() + static_cast<ptrdiff_t>(k),
                 byOff_.begin() + static_cast<ptrdiff_t>(j));
}

uint64_t
FreeMap::take(uint64_t len)
{
    uint32_t n = bestFit(len);
    if (n == kNone)
        return 0;
    uint64_t off = nodes_[n].off;
    uint64_t have = nodes_[n].len;
    size_t i = lowerBound(off);
    unlink(n);
    // Extents never touch, so the rest coalesces with nothing.
    if (have > len)
        byOff_[i] = Entry{off + len, link(off + len, have - len)};
    else
        byOff_.erase(byOff_.begin() + static_cast<ptrdiff_t>(i));
    return off;
}

bool
FreeMap::overlaps(uint64_t off, uint64_t len) const
{
    size_t i = lowerBound(off);
    if (i < byOff_.size() && byOff_[i].off < off + len)
        return true;
    return i > 0 && byOff_[i - 1].off + lenAt(i - 1) > off;
}

}  // namespace cnvm::alloc
