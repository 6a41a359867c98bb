/**
 * @file
 * YCSB workload generator (Cooper et al., SoCC '10), reimplemented for
 * the data-structure benchmarks (paper Section 5.2 runs YCSB-Load).
 *
 * Keys are 8-byte binary strings derived from a scrambled record id
 * (the paper's structures use 8-byte keys; the B+Tree benchmark pads
 * to 32). Values are `valueSize` pseudo-random bytes (256 in the
 * paper's Figure 6/7 runs).
 */
#ifndef CNVM_WORKLOADS_YCSB_H
#define CNVM_WORKLOADS_YCSB_H

#include <string>

#include "common/rand.h"

namespace cnvm::wl {

enum class YcsbOp { insert, update, read };

struct YcsbRequest {
    YcsbOp op;
    std::string key;
    std::string value;  ///< empty for reads
};

/** Standard workload mixes. */
enum class YcsbKind {
    load,  ///< 100% inserts of new records (paper Figures 6-8)
    a,     ///< 50% update / 50% read, zipfian
    b,     ///< 5% update / 95% read, zipfian
    c,     ///< 100% read, zipfian
};

const char* ycsbKindName(YcsbKind kind);

class Ycsb {
 public:
    /**
     * @param kind workload mix
     * @param recordCount size of the loaded key space
     * @param keyLen key bytes (8, or 32 for the B+Tree benchmark)
     * @param valueLen value bytes per write
     * @param seed generator seed (deterministic streams)
     */
    Ycsb(YcsbKind kind, uint64_t recordCount, size_t keyLen,
         size_t valueLen, uint64_t seed = 1);

    /** The next request in the stream. */
    YcsbRequest next();

    /** Key string of record id `id` (for preloading / verification). */
    std::string keyOf(uint64_t id) const;

    /** Deterministic value for the i-th write. */
    std::string valueOf(uint64_t i) const;

 private:
    YcsbKind kind_;
    uint64_t recordCount_;
    size_t keyLen_;
    size_t valueLen_;
    uint64_t nextInsert_ = 0;
    uint64_t opIndex_ = 0;
    Xorshift rng_;
    Zipfian zipf_;
};

}  // namespace cnvm::wl

#endif  // CNVM_WORKLOADS_YCSB_H
