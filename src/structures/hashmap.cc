#include "structures/hashmap.h"

#include <mutex>
#include <shared_mutex>

#include "txn/txrun.h"

namespace cnvm::ds {

namespace {

void
hmPutFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PHashMap>(a.get<uint64_t>());
    auto key = a.getString();
    auto val = a.getString();
    chainPut(tx, bucketHead(tx, root, key), key, val);
}

void
hmDelFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PHashMap>(a.get<uint64_t>());
    auto key = a.getString();
    auto* out = reinterpret_cast<bool*>(a.get<uint64_t>());
    bool removed = chainUnlink(tx, bucketHead(tx, root, key), key);
    if (!tx.recovering())  // else out dangles: the crashed stack is gone
        *out = removed;
}

void
hmGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PHashMap>(a.get<uint64_t>());
    auto key = a.getString();
    auto* out = reinterpret_cast<LookupResult*>(a.get<uint64_t>());
    if (tx.recovering())
        return;  // out points into the crashed process's stack
    chainGet(tx, bucketHead(tx, root, key), key, out);
}

const txn::FuncId kHmPut = txn::registerTxFunc("hm_put", hmPutFn);
const txn::FuncId kHmDel = txn::registerTxFunc("hm_del", hmDelFn);
const txn::FuncId kHmGet = txn::registerTxFunc("hm_get", hmGetFn);

}  // namespace

HashMap::HashMap(txn::Engine& eng, uint64_t rootOff,
                 const KvConfig& cfg)
    : eng_(eng),
      root_(openBuckets<PHashMap>(eng, rootOff, cfg.hashShards,
                                  cfg.hashBucketsPerShard)),
      shardLocks_(root_->nShards)
{
}

void
HashMap::insert(std::string_view key, std::string_view val)
{
    std::lock_guard<sim::SimSharedMutex> g(lockOf(key));
    txn::run(eng_, kHmPut, root_.raw(), key, val);
}

bool
HashMap::lookup(std::string_view key, LookupResult* out)
{
    std::shared_lock<sim::SimSharedMutex> g(lockOf(key));
    txn::run(eng_, kHmGet, root_.raw(), key,
             reinterpret_cast<uint64_t>(out));
    return out->found;
}

bool
HashMap::remove(std::string_view key)
{
    std::lock_guard<sim::SimSharedMutex> g(lockOf(key));
    bool removed = false;
    txn::run(eng_, kHmDel, root_.raw(), key,
             reinterpret_cast<uint64_t>(&removed));
    return removed;
}

}  // namespace cnvm::ds
