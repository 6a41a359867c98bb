/**
 * @file
 * Persistent hash map, modeled on the PMDK-repository transactional
 * hashmap the paper adapts (Section 5.2): 256 instances ("shards"),
 * each protected by its own reader-writer lock, each with its own
 * bucket array and chains. An insert of a new key prepends to a
 * bucket chain, so the only clobbered input is the bucket head
 * pointer — this is why the paper measures clobber_log count 1 /
 * 8 bytes for hashmap inserts.
 */
#ifndef CNVM_STRUCTURES_HASHMAP_H
#define CNVM_STRUCTURES_HASHMAP_H

#include <vector>

#include "sim/lock.h"
#include "structures/chain.h"

namespace cnvm::ds {

/** Persistent root: shard/bucket geometry + flat bucket-head array. */
struct PHashMap {
    uint64_t nShards;
    uint64_t bucketsPerShard;
    uint64_t count;
    // nvm::PPtr<ChainNode> buckets[nShards * bucketsPerShard] follows

    nvm::PPtr<ChainNode>*
    buckets()
    {
        return reinterpret_cast<nvm::PPtr<ChainNode>*>(this + 1);
    }
};

class HashMap : public KvStructure {
 public:
    HashMap(txn::Engine& eng, uint64_t rootOff = 0,
            const KvConfig& cfg = KvConfig{});

    const char* name() const override { return "hashmap"; }
    uint64_t rootOff() const override { return root_.raw(); }

    void insert(std::string_view key, std::string_view val) override;
    bool lookup(std::string_view key, LookupResult* out) override;
    bool remove(std::string_view key) override;

    /** Entry count by direct traversal (no persistent counter on the
     *  insert path — it would add a clobber entry per insert). */
    uint64_t size() const { return bucketNodeCount(root_); }

 private:
    sim::SimSharedMutex&
    lockOf(std::string_view key)
    {
        return shardLocks_[bucketShard(key, root_->nShards)];
    }

    txn::Engine& eng_;
    nvm::PPtr<PHashMap> root_;
    std::vector<sim::SimSharedMutex> shardLocks_;
};

}  // namespace cnvm::ds

#endif  // CNVM_STRUCTURES_HASHMAP_H
