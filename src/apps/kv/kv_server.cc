#include "apps/kv/kv_server.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "runtimes/descriptor.h"
#include "structures/chain.h"
#include "txn/txrun.h"

namespace cnvm::apps {

namespace {

nvm::PPtr<KvItem>
makeItem(txn::Tx& tx, std::string_view key, std::string_view val,
         uint32_t flags, uint32_t version, nvm::PPtr<KvItem> next)
{
    auto it = tx.pnew<KvItem>(key.size() + val.size());
    tx.st(it->next, next);
    tx.st(it->keyLen, static_cast<uint32_t>(key.size()));
    tx.st(it->valLen, static_cast<uint32_t>(val.size()));
    tx.st(it->flags, flags);
    tx.st(it->version, version);
    tx.stBytes(it->keyBytes(), key.data(), key.size());
    tx.stBytes(it->valBytes(static_cast<uint32_t>(key.size())),
               val.data(), val.size());
    return it;
}

/**
 * Store `val` under `key`: set when `expected` is empty, else cas,
 * which replaces only an item whose version equals `*expected`. Shared
 * by the set, cas and batch txfuncs, so single-op and group-commit
 * paths execute identical structure code. The version check happens
 * inside the transaction, so the paper's CAS semantics hold under
 * both normal execution and recovery re-execution (the re-run sees the
 * same pre-transaction version the original run saw, because the
 * original run's effects were rolled back / never made durable).
 */
MutResult
doStore(txn::Tx& tx, nvm::PPtr<PKvStore> root, std::string_view key,
        std::string_view val, uint32_t flags,
        std::optional<uint32_t> expected)
{
    auto& head = ds::bucketHead(tx, root, key);
    auto hit = ds::chainFind(tx, head, key);
    if (hit.node.isNull()) {
        if (expected)
            return MutResult::notFound;
        tx.st(head, makeItem(tx, key, val, flags, 1, tx.ld(head)));
        return MutResult::stored;
    }
    auto it = hit.node;
    uint32_t version = tx.ld(it->version);
    if (expected && version != *expected)
        return MutResult::exists;
    if (tx.ld(it->valLen) == val.size()) {
        // In-place update: value bytes + metadata.
        tx.stBytes(it->valBytes(static_cast<uint32_t>(key.size())),
                   val.data(), val.size());
        tx.st(it->flags, flags);
        tx.st(it->version, version + 1);
    } else {
        ds::chainSwap(tx, hit, makeItem(tx, key, val, flags, version + 1,
                                        tx.ld(it->next)));
    }
    return MutResult::stored;
}

MutResult
doDel(txn::Tx& tx, nvm::PPtr<PKvStore> root, std::string_view key)
{
    return ds::chainUnlink(tx, ds::bucketHead(tx, root, key), key)
               ? MutResult::deleted
               : MutResult::notFound;
}

void
kvSetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto key = a.getString();
    auto val = a.getString();
    auto flags = a.get<uint32_t>();
    doStore(tx, root, key, val, flags, std::nullopt);
}

void
kvGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto key = a.getString();
    auto* out = reinterpret_cast<KvReadResult*>(a.get<uint64_t>());
    // Read-only transactions are never re-executed (their begin record
    // is never persisted), but keep the dangling-pointer guard
    // anyway: it documents the volatile-out-pointer contract.
    if (tx.recovering())
        return;
    auto it = ds::chainFind(tx, ds::bucketHead(tx, root, key), key).node;
    out->found = !it.isNull();
    if (!out->found)
        return;
    out->len = tx.ld(it->valLen);
    out->flags = tx.ld(it->flags);
    out->version = tx.ld(it->version);
    CNVM_CHECK(out->len <= ds::kMaxValLen, "value too long");
    tx.ldBytes(out->value, it->valBytes(static_cast<uint32_t>(key.size())),
               out->len);
}

void
kvDelFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto key = a.getString();
    auto* out = reinterpret_cast<MutResult*>(a.get<uint64_t>());
    MutResult r = doDel(tx, root, key);
    // The out pointer is a stack address of the crashed process during
    // recovery re-execution — never dereference it then.
    if (out != nullptr && !tx.recovering())
        *out = r;
}

void
kvCasFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto key = a.getString();
    auto val = a.getString();
    auto flags = a.get<uint32_t>();
    auto expected = a.get<uint32_t>();
    auto* out = reinterpret_cast<MutResult*>(a.get<uint64_t>());
    MutResult r = doStore(tx, root, key, val, flags, expected);
    if (out != nullptr && !tx.recovering())
        *out = r;
}

/**
 * Group commit body: the serialized batch rides in one length-prefixed
 * blob (count, then per op: kind, flags, casVersion, key, val), so the
 * whole batch is one v_log entry and recovery re-executes it as one
 * unit — all of the batch or none of it is ever durable.
 */
void
kvBatchFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto* results = reinterpret_cast<MutResult*>(a.get<uint64_t>());
    bool live = !tx.recovering();
    txn::ArgReader ops(a.getBytes());
    auto count = ops.get<uint32_t>();
    for (uint32_t i = 0; i < count; i++) {
        auto kind = static_cast<MutKind>(ops.get<uint8_t>());
        auto flags = ops.get<uint32_t>();
        auto casVersion = ops.get<uint32_t>();
        auto key = ops.getString();
        auto val = ops.getString();
        MutResult r = MutResult::error;
        switch (kind) {
          case MutKind::set:
            r = doStore(tx, root, key, val, flags, std::nullopt);
            break;
          case MutKind::del:
            r = doDel(tx, root, key);
            break;
          case MutKind::cas:
            r = doStore(tx, root, key, val, flags, casVersion);
            break;
        }
        if (live && results != nullptr)
            results[i] = r;
    }
}

const txn::FuncId kKvSet = txn::registerTxFunc("kv_set", kvSetFn);
const txn::FuncId kKvGet = txn::registerTxFunc("kv_get", kvGetFn);
const txn::FuncId kKvDel = txn::registerTxFunc("kv_del", kvDelFn);
const txn::FuncId kKvCas = txn::registerTxFunc("kv_cas", kvCasFn);
const txn::FuncId kKvBatch = txn::registerTxFunc("kv_batch", kvBatchFn);

}  // namespace

KvServer::KvServer(txn::Engine& eng, uint64_t rootOff,
                   const Config& cfg)
    : eng_(eng),
      root_(ds::openBuckets<PKvStore>(eng, rootOff, cfg.shards,
                                      cfg.bucketsPerShard)),
      lockMode_(cfg.lockMode),
      shards_(root_->nShards)
{
}

size_t
KvServer::shardOf(std::string_view key) const
{
    return ds::bucketShard(key, root_->nShards);
}

void
KvServer::lockShard(size_t idx, bool exclusive)
{
    if (lockMode_ == LockMode::spin) {
        shards_[idx].spin.lock();
    } else if (exclusive) {
        shards_[idx].rw.lock();
    } else {
        shards_[idx].rw.lock_shared();
    }
}

void
KvServer::unlockShard(size_t idx, bool exclusive)
{
    if (lockMode_ == LockMode::spin) {
        shards_[idx].spin.unlock();
    } else if (exclusive) {
        shards_[idx].rw.unlock();
    } else {
        shards_[idx].rw.unlock_shared();
    }
}

namespace {

/** Exception-safe shard lock (a simulated crash mid-transaction must
 *  not leave the lock held). */
class ShardGuard {
 public:
    ShardGuard(KvServer& server, size_t idx, bool exclusive)
        : server_(server), idx_(idx), exclusive_(exclusive)
    {
        server_.lockShard(idx_, exclusive_);
    }
    ~ShardGuard() { server_.unlockShard(idx_, exclusive_); }
    ShardGuard(const ShardGuard&) = delete;
    ShardGuard& operator=(const ShardGuard&) = delete;

 private:
    KvServer& server_;
    size_t idx_;
    bool exclusive_;
};

/**
 * Exception-safe exclusive lock over a batch's shard set. Indices are
 * locked in ascending order — concurrent batches from different
 * workers may overlap shard sets, and ordered acquisition is what
 * rules deadlock out.
 */
class MultiShardGuard {
 public:
    MultiShardGuard(KvServer& server, std::vector<size_t>&& sorted)
        : server_(server), idx_(std::move(sorted))
    {
        for (size_t i : idx_)
            server_.lockShard(i, true);
    }
    ~MultiShardGuard()
    {
        for (auto it = idx_.rbegin(); it != idx_.rend(); ++it)
            server_.unlockShard(*it, true);
    }
    MultiShardGuard(const MultiShardGuard&) = delete;
    MultiShardGuard& operator=(const MultiShardGuard&) = delete;

 private:
    KvServer& server_;
    std::vector<size_t> idx_;
};

}  // namespace

void
KvServer::set(std::string_view key, std::string_view val,
              uint32_t flags)
{
    size_t shard = shardOf(key);
    shards_[shard].stats.sets.fetch_add(1, std::memory_order_relaxed);
    ShardGuard g(*this, shard, true);
    txn::run(eng_, kKvSet, root_.raw(), key, val, flags);
}

bool
KvServer::get(std::string_view key, KvReadResult* out)
{
    size_t shard = shardOf(key);
    auto& st = shards_[shard].stats;
    st.gets.fetch_add(1, std::memory_order_relaxed);
    ShardGuard g(*this, shard, false);
    txn::run(eng_, kKvGet, root_.raw(), key,
             reinterpret_cast<uint64_t>(out));
    if (out->found)
        st.hits.fetch_add(1, std::memory_order_relaxed);
    return out->found;
}

bool
KvServer::get(std::string_view key, ds::LookupResult* out)
{
    KvReadResult full;
    if (!get(key, &full)) {
        out->found = false;
        return false;
    }
    out->found = true;
    out->len = full.len;
    std::memcpy(out->value, full.value, full.len);
    return true;
}

MutResult
KvServer::cas(std::string_view key, std::string_view val,
              uint32_t flags, uint32_t expectedVersion)
{
    size_t shard = shardOf(key);
    MutResult r = MutResult::error;
    {
        ShardGuard g(*this, shard, true);
        txn::run(eng_, kKvCas, root_.raw(), key, val, flags,
                 expectedVersion, reinterpret_cast<uint64_t>(&r));
    }
    auto& st = shards_[shard].stats;
    if (r == MutResult::stored)
        st.casStores.fetch_add(1, std::memory_order_relaxed);
    else
        st.casMisses.fetch_add(1, std::memory_order_relaxed);
    return r;
}

bool
KvServer::del(std::string_view key)
{
    size_t shard = shardOf(key);
    auto& st = shards_[shard].stats;
    st.dels.fetch_add(1, std::memory_order_relaxed);
    MutResult r = MutResult::error;
    {
        ShardGuard g(*this, shard, true);
        txn::run(eng_, kKvDel, root_.raw(), key,
                 reinterpret_cast<uint64_t>(&r));
    }
    if (r == MutResult::deleted) {
        st.delHits.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
KvServer::applyBatch(std::span<const MutOp> ops, MutResult* results)
{
    if (ops.empty())
        return;
    std::vector<size_t> shardIdx;
    shardIdx.reserve(ops.size());
    for (const auto& op : ops)
        shardIdx.push_back(shardOf(op.key));
    std::sort(shardIdx.begin(), shardIdx.end());
    shardIdx.erase(std::unique(shardIdx.begin(), shardIdx.end()),
                   shardIdx.end());

    txn::ArgWriter blob;
    blob.put(static_cast<uint32_t>(ops.size()));
    for (const auto& op : ops) {
        blob.put(static_cast<uint8_t>(op.kind));
        blob.put(op.flags);
        blob.put(op.casVersion);
        blob.putBytes(op.key.data(), op.key.size());
        blob.putBytes(op.val.data(), op.val.size());
    }

    // The batch blob rides in the descriptor's v_log argument area
    // alongside the root/results words and span framing. Reject
    // oversized batches with the same typed error as a log overflow
    // so callers fall back to op-by-op replay instead of panicking.
    constexpr size_t kBatchArgSlack = 64;
    if (blob.bytes().size() + kBatchArgSlack > rt::kMaxArgBytes)
        throw txn::LogOverflowError(
            blob.bytes().size() + kBatchArgSlack, rt::kMaxArgBytes);

    for (const auto& op : ops) {
        auto& st = shards_[shardOf(op.key)].stats;
        if (op.kind == MutKind::set)
            st.sets.fetch_add(1, std::memory_order_relaxed);
        else if (op.kind == MutKind::del)
            st.dels.fetch_add(1, std::memory_order_relaxed);
    }

    MultiShardGuard g(*this, std::move(shardIdx));
    txn::run(eng_, kKvBatch, root_.raw(),
             reinterpret_cast<uint64_t>(results), blob.bytes());

    for (size_t i = 0; i < ops.size(); i++) {
        auto& st = shards_[shardOf(ops[i].key)].stats;
        if (ops[i].kind == MutKind::del &&
            results[i] == MutResult::deleted)
            st.delHits.fetch_add(1, std::memory_order_relaxed);
        else if (ops[i].kind == MutKind::cas &&
                 results[i] == MutResult::stored)
            st.casStores.fetch_add(1, std::memory_order_relaxed);
        else if (ops[i].kind == MutKind::cas)
            st.casMisses.fetch_add(1, std::memory_order_relaxed);
    }
}

uint64_t
KvServer::itemCount() const
{
    return ds::bucketNodeCount(root_);
}

KvServer::StatsTotals
KvServer::statsTotals() const
{
    StatsTotals t;
    for (const auto& s : shards_) {
        t.gets += s.stats.gets.load(std::memory_order_relaxed);
        t.hits += s.stats.hits.load(std::memory_order_relaxed);
        t.sets += s.stats.sets.load(std::memory_order_relaxed);
        t.dels += s.stats.dels.load(std::memory_order_relaxed);
        t.delHits += s.stats.delHits.load(std::memory_order_relaxed);
        t.casStores +=
            s.stats.casStores.load(std::memory_order_relaxed);
        t.casMisses +=
            s.stats.casMisses.load(std::memory_order_relaxed);
    }
    return t;
}

}  // namespace cnvm::apps
