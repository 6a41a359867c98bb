/**
 * @file
 * The checksum every self-validating on-media record carries: log
 * entries, begin records, allocation intent tables and the heap's
 * quarantine table (pool layout v3).
 *
 * Recovery must tell a record that reached media whole from one a
 * crash tore or a fault damaged, and the crash model tears at 8-byte
 * words. So the sum consumes words: each step folds one word w into
 * the state h as h = g(h ^ w), with g(x) = y ^ (y >> 32) for
 * y = x * K and K odd. The multiply and the xorshift are each a
 * bijection on 64-bit values, so every step maps distinct states to
 * distinct states. Changing any one word of a record (a torn word,
 * or any set of flipped bits inside it) therefore always changes the
 * raw sum. A raw sum of 0 is reported as 1, because freshly zeroed
 * media would otherwise carry a matching sum; that merges raw sums 0
 * and 1, the one pair of records the one-word guarantee leaves out.
 *
 * fnv1a (common/rand.h) is not used here: it is byte-serial, one
 * dependent multiply per byte. It stays where its values are names
 * and placements that must not move (txfunc ids, key hashing, lock
 * striping).
 */
#ifndef CNVM_COMMON_CHECKSUM_H
#define CNVM_COMMON_CHECKSUM_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cnvm {

class WordSum {
 public:
    /** Fold in one 8-byte word. */
    void
    add(uint64_t w)
    {
        uint64_t y = (h_ ^ w) * kMul;
        h_ = y ^ (y >> 32);
    }

    /**
     * Fold in `n` bytes as little-endian 8-byte words, the last one
     * zero-padded. The records' lengths live in words of their own,
     * so the padding cannot alias a longer record.
     */
    void
    addBytes(const void* data, size_t n)
    {
        const auto* p = static_cast<const uint8_t*>(data);
        for (; n >= 8; p += 8, n -= 8) {
            uint64_t w;
            std::memcpy(&w, p, 8);
            add(w);
        }
        if (n > 0) {
            uint64_t w = 0;
            std::memcpy(&w, p, n);
            add(w);
        }
    }

    /** The sum to store or compare: never 0. */
    uint64_t
    value() const
    {
        return h_ == 0 ? 1 : h_;
    }

 private:
    static constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace cnvm

#endif  // CNVM_COMMON_CHECKSUM_H
