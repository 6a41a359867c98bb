/**
 * @file
 * Memcached-like persistent key-value store (paper Section 5.6).
 *
 * The paper ports memcached 1.2.5 to Mnemosyne/PMDK/Clobber-NVM and
 * drives it with memslap (16-byte keys, 64-byte values). This module
 * is the equivalent server core: a persistent hash table with
 * memcached-style items (flags + version for CAS), sharded locking,
 * and — because old memcached's coarse lock scaled poorly — two
 * selectable lock implementations, spinlock and reader-writer lock
 * (the paper's Figure 10 compares exactly these).
 *
 * The store is the engine room of the network-facing KV service
 * (src/server/): every piece of state one shard has — its locks and
 * its served-request counters — lives in one ShardState struct, so a
 * server worker touches exactly one cache neighborhood per shard.
 * The shard locks are what serialize conflicting transactions from
 * different server workers. Mutations can be applied one per
 * transaction (set/del/cas) or batched into a single transaction
 * (applyBatch — the group-commit path: one begin persist and one
 * commit fence for the whole batch).
 */
#ifndef CNVM_APPS_KV_SERVER_H
#define CNVM_APPS_KV_SERVER_H

#include <atomic>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nvm/pptr.h"
#include "sim/lock.h"
#include "structures/kv.h"
#include "txn/engine.h"

namespace cnvm::apps {

/** Persistent item: header + inline key and value bytes. It starts
 *  like ds::ChainNode, so structures/chain.h walks its buckets. */
struct KvItem {
    nvm::PPtr<KvItem> next;
    uint32_t keyLen;
    uint32_t valLen;
    uint32_t flags;
    uint32_t version;  ///< bumped on update (memcached CAS id)

    char*
    keyBytes()
    {
        return reinterpret_cast<char*>(this + 1);
    }
    char*
    valBytes(uint32_t klen)
    {
        return keyBytes() + klen;
    }
};

struct PKvStore {
    uint64_t nShards;
    uint64_t bucketsPerShard;

    nvm::PPtr<KvItem>*
    buckets()
    {
        return reinterpret_cast<nvm::PPtr<KvItem>*>(this + 1);
    }
};

/**
 * Volatile out-parameter of get/gets: the value plus the memcached
 * item metadata (flags and the CAS id, i.e. KvItem::version).
 */
struct KvReadResult {
    bool found = false;
    uint32_t len = 0;
    uint32_t flags = 0;
    uint32_t version = 0;  ///< memcached "cas unique"
    char value[ds::kMaxValLen];

    std::string
    str() const
    {
        return {value, len};
    }
};

/** Mutation kinds accepted by applyBatch. */
enum class MutKind : uint8_t { set = 0, del = 1, cas = 2 };

/** Outcome of one mutation (maps 1:1 onto protocol responses). */
enum class MutResult : uint8_t {
    stored = 0,    ///< set/cas wrote the item
    deleted = 1,   ///< del removed the item
    notFound = 2,  ///< del/cas: no such key
    exists = 3,    ///< cas: version mismatch, item untouched
    error = 4,     ///< transaction failed (e.g. log overflow)
};

/** One mutation of a batch. Views must outlive applyBatch. */
struct MutOp {
    MutKind kind = MutKind::set;
    std::string_view key;
    std::string_view val;     ///< unused for del
    uint32_t flags = 0;
    uint32_t casVersion = 0;  ///< cas only: expected KvItem::version
};

class KvServer {
 public:
    enum class LockMode { spin, rw };

    struct Config {
        size_t shards = 64;
        size_t bucketsPerShard = 2048;
        LockMode lockMode = LockMode::rw;
    };

    /**
     * Everything one shard has, in one struct: its two lock
     * implementations (one is active per LockMode) and its serving
     * counters. The counters are relaxed atomics: they are served
     * from the protocol `stats` command while workers mutate them.
     */
    struct ShardState {
        sim::SimMutex spin{/* spin */ true};
        sim::SimSharedMutex rw;

        struct Stats {
            std::atomic<uint64_t> gets{0};
            std::atomic<uint64_t> hits{0};
            std::atomic<uint64_t> sets{0};
            std::atomic<uint64_t> dels{0};
            std::atomic<uint64_t> delHits{0};
            std::atomic<uint64_t> casStores{0};
            std::atomic<uint64_t> casMisses{0};
        } stats;
    };

    /** Aggregate of every shard's counters (stats command). */
    struct StatsTotals {
        uint64_t gets = 0, hits = 0, sets = 0, dels = 0, delHits = 0,
                 casStores = 0, casMisses = 0;
    };

    explicit KvServer(txn::Engine& eng, uint64_t rootOff,
                      const Config& cfg);
    explicit KvServer(txn::Engine& eng) : KvServer(eng, 0, Config{}) {}

    uint64_t rootOff() const { return root_.raw(); }

    /** Store (insert or replace). */
    void set(std::string_view key, std::string_view val,
             uint32_t flags = 0);

    /** @return true and fill `out` on hit. */
    bool get(std::string_view key, ds::LookupResult* out);

    /** get with item metadata (the `gets`/CAS read path). */
    bool get(std::string_view key, KvReadResult* out);

    /**
     * Compare-and-store: replace the item iff its version equals
     * `expectedVersion` (memcached `cas`).
     * @return stored, exists (version mismatch) or notFound.
     */
    MutResult cas(std::string_view key, std::string_view val,
                  uint32_t flags, uint32_t expectedVersion);

    /** @return true if the key existed. */
    bool del(std::string_view key);

    /**
     * Group commit: apply every mutation of `ops` in ONE transaction,
     * paying one begin persist and one commit fence for the whole
     * batch. Locks every involved shard (in index order, so
     * concurrent batches cannot deadlock) for the duration. Fills
     * `results[i]` for each op. Throws txn::LogOverflowError — with
     * no mutation applied — when the batch outgrows the slot's log
     * area; callers retry op-by-op (see server::KvService).
     */
    void applyBatch(std::span<const MutOp> ops, MutResult* results);

    /** Item count by direct traversal (diagnostics; not safe against
     *  concurrent mutation). */
    uint64_t itemCount() const;

    /** @name Shard topology */
    /// @{
    size_t shardCount() const { return shards_.size(); }
    size_t shardOf(std::string_view key) const;
    StatsTotals statsTotals() const;
    /// @}

    txn::Engine& engine() { return eng_; }
    LockMode lockMode() const { return lockMode_; }

    /** @name internal (public for the RAII guard) */
    /// @{
    void lockShard(size_t idx, bool exclusive);
    void unlockShard(size_t idx, bool exclusive);
    /// @}

 private:
    txn::Engine& eng_;
    nvm::PPtr<PKvStore> root_;
    LockMode lockMode_;
    std::vector<ShardState> shards_;
};

}  // namespace cnvm::apps

#endif  // CNVM_APPS_KV_SERVER_H
