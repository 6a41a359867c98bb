/**
 * @file
 * The persistent chain under ds::List, ds::HashMap and apps::KvServer:
 * one node layout, one bounded walk, and the steps built on it. A new
 * key is prepended, so the chain's head pointer is an insert's one
 * clobbered input (the paper's Figure 2a; Section 5.3 measures one
 * 8-byte clobber entry per hashmap insert).
 *
 * The walk and the link steps are templates over the node type: a
 * node starts with `next`, `keyLen` and `valLen` and has keyBytes().
 * ChainNode is the list's and the hashmap's; apps::KvItem keeps its
 * flags and version before the key. Every access goes through the
 * transaction, so every protocol runs the same loads and stores.
 */
#ifndef CNVM_STRUCTURES_CHAIN_H
#define CNVM_STRUCTURES_CHAIN_H

#include "common/rand.h"
#include "nvm/pptr.h"
#include "structures/kv.h"

namespace cnvm::ds {

/** Persistent node: header followed by inline key and value bytes. */
struct ChainNode {
    nvm::PPtr<ChainNode> next;
    uint32_t keyLen;
    uint32_t valLen;
    // key bytes, then value bytes, follow inline

    char*
    keyBytes()
    {
        return reinterpret_cast<char*>(this + 1);
    }
    /**
     * @param klen the key length *as loaded through the transaction*
     * — reading this->keyLen directly would bypass the runtime's read
     * interposition (and see stale home memory under redo logging).
     */
    char*
    valBytes(uint32_t klen)
    {
        return keyBytes() + klen;
    }
};

/** Where chainFind stopped. */
template <typename Node>
struct ChainHit {
    nvm::PPtr<Node>* link;  ///< the head slot or the predecessor's next
    nvm::PPtr<Node> node;   ///< the key's node; null on a miss
};

/** Interposed comparison of `key` against a node's inline key. */
bool chainKeyEquals(txn::Tx& tx, const uint32_t& keyLen,
                    const char* keyBytes, std::string_view key);

/** Walk the chain at `head` to `key`'s node, bounded by WalkBound. */
template <typename Node>
ChainHit<Node>
chainFind(txn::Tx& tx, nvm::PPtr<Node>& head, std::string_view key)
{
    WalkBound walk(tx, sizeof(Node));
    nvm::PPtr<Node>* link = &head;
    for (auto n = tx.ld(*link); !n.isNull();
         link = &n->next, n = tx.ld(*link)) {
        walk.step();
        if (chainKeyEquals(tx, n->keyLen, n->keyBytes(), key))
            return {link, n};
    }
    return {link, {}};
}

/** Link `fresh` where the hit node was, then free the hit node. */
template <typename Node>
void
chainSwap(txn::Tx& tx, const ChainHit<Node>& hit, nvm::PPtr<Node> fresh)
{
    tx.st(*hit.link, fresh);
    tx.pfree(hit.node);
}

/**
 * Unlink `key`'s node from the chain at `head` and free it. A non-null
 * `count` (the list's entry count) is decremented between the unlink
 * and the free: no-log frees durably at once, so that order is a
 * crash site order.
 * @return whether the key was there.
 */
template <typename Node>
bool
chainUnlink(txn::Tx& tx, nvm::PPtr<Node>& head, std::string_view key,
            uint64_t* count = nullptr)
{
    auto hit = chainFind(tx, head, key);
    if (hit.node.isNull())
        return false;
    tx.st(*hit.link, tx.ld(hit.node->next));
    if (count != nullptr)
        tx.st(*count, tx.ld(*count) - 1);
    tx.pfree(hit.node);
    return true;
}

/**
 * Insert or replace `key`'s value. A new key is prepended; a value of
 * another size swaps a fresh node in where the old one was.
 * @return true when the key was new.
 */
bool chainPut(txn::Tx& tx, nvm::PPtr<ChainNode>& head,
              std::string_view key, std::string_view val);

/** Fill `out` from `key`'s node, if the chain holds one. */
void chainGet(txn::Tx& tx, nvm::PPtr<ChainNode>& head,
              std::string_view key, LookupResult* out);

/**
 * @name Bucket arrays
 * ds::HashMap and apps::KvServer keep nShards × bucketsPerShard chain
 * heads after a root of type Root, whose fields start with nShards and
 * bucketsPerShard and whose buckets() returns the heads.
 */
/// @{

/** The shard of `key`'s bucket: the one lock that covers its chain. */
inline size_t
bucketShard(std::string_view key, uint64_t nShards)
{
    return fnv1a(key.data(), key.size()) % nShards;
}

/** The chain head `key` hashes to: a function of the key bytes and
 *  of the geometry, loaded through `tx`, so re-execution finds it. */
template <typename Root>
auto&
bucketHead(txn::Tx& tx, nvm::PPtr<Root> root, std::string_view key)
{
    uint64_t shards = tx.ld(root->nShards);
    uint64_t perShard = tx.ld(root->bucketsPerShard);
    uint64_t h = fnv1a(key.data(), key.size());
    return root->buckets()[(h % shards) * perShard + (h / shards) % perShard];
}

/** Reattach the root at `rootOff`, or create an empty one if it is 0. */
template <typename Root>
nvm::PPtr<Root>
openBuckets(txn::Engine& eng, uint64_t rootOff, uint64_t nShards,
            uint64_t perShard)
{
    if (rootOff != 0)
        return nvm::PPtr<Root>(rootOff);
    auto root = nvm::PPtr<Root>(rawCreate(
        eng, sizeof(Root) +
                 nShards * perShard * sizeof(nvm::PPtr<ChainNode>)));
    Root init{};
    init.nShards = nShards;
    init.bucketsPerShard = perShard;
    auto& pool = eng.rt.pool();
    pool.write(root.get(), &init, sizeof(init));
    pool.persist(root.get(), sizeof(init));
    return root;
}

/** Nodes in every chain, by direct traversal (not safe against
 *  concurrent mutation). */
template <typename Root>
uint64_t
bucketNodeCount(nvm::PPtr<Root> root)
{
    uint64_t n = 0;
    uint64_t buckets = root->nShards * root->bucketsPerShard;
    for (uint64_t b = 0; b < buckets; b++) {
        for (auto node = root->buckets()[b]; !node.isNull();
             node = node->next)
            n++;
    }
    return n;
}

/// @}

}  // namespace cnvm::ds

#endif  // CNVM_STRUCTURES_CHAIN_H
