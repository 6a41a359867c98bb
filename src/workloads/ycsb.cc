#include "workloads/ycsb.h"

#include "common/error.h"

namespace cnvm::wl {

const char*
ycsbKindName(YcsbKind kind)
{
    switch (kind) {
      case YcsbKind::load: return "load";
      case YcsbKind::a: return "a";
      case YcsbKind::b: return "b";
      case YcsbKind::c: return "c";
    }
    return "?";
}

Ycsb::Ycsb(YcsbKind kind, uint64_t recordCount, size_t keyLen,
           size_t valueLen, uint64_t seed)
    : kind_(kind),
      recordCount_(recordCount),
      keyLen_(keyLen),
      valueLen_(valueLen),
      rng_(seed),
      zipf_(recordCount, 0.99, seed + 7)
{
    CNVM_CHECK(keyLen >= 8, "YCSB keys need at least 8 bytes");
}

std::string
Ycsb::keyOf(uint64_t id) const
{
    // Scramble so inserts are not ordered (as YCSB's hashed insert
    // order), then render big-endian into the first 8 bytes; pad the
    // rest (B+Tree's 32-byte keys) with fixed filler.
    uint64_t k = mixHash(id + 0x59c5b1);
    std::string s(keyLen_, 'p');
    for (int b = 7; b >= 0; b--) {
        s[b] = static_cast<char>(k & 0xff);
        k >>= 8;
    }
    return s;
}

std::string
Ycsb::valueOf(uint64_t i) const
{
    std::string v(valueLen_, '\0');
    Xorshift rng(i * 2654435761ULL + 13);
    for (auto& c : v)
        c = static_cast<char>('A' + rng.nextUint(58));
    return v;
}

YcsbRequest
Ycsb::next()
{
    uint64_t i = opIndex_++;
    switch (kind_) {
      case YcsbKind::load:
        return {YcsbOp::insert, keyOf(nextInsert_++), valueOf(i)};
      case YcsbKind::a:
        if (rng_.nextBool(0.5))
            return {YcsbOp::update, keyOf(zipf_.next()), valueOf(i)};
        return {YcsbOp::read, keyOf(zipf_.next()), {}};
      case YcsbKind::b:
        if (rng_.nextBool(0.05))
            return {YcsbOp::update, keyOf(zipf_.next()), valueOf(i)};
        return {YcsbOp::read, keyOf(zipf_.next()), {}};
      case YcsbKind::c:
        return {YcsbOp::read, keyOf(zipf_.next()), {}};
    }
    panic("unreachable ycsb kind");
}

}  // namespace cnvm::wl
