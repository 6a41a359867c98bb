#include "structures/skiplist.h"

#include <cstring>
#include <mutex>

#include "common/error.h"
#include "common/rand.h"
#include "txn/txrun.h"

namespace cnvm::ds {

namespace {

/** Deterministic tower height: geometric(1/2) from the key hash. */
uint32_t
levelForKey(uint64_t key)
{
    uint64_t h = mixHash(key ^ 0x5be1f00dULL);
    uint32_t lvl = 1;
    while ((h & 1) != 0 && lvl < kSkipMaxLevel) {
        lvl++;
        h >>= 1;
    }
    return lvl;
}

/**
 * Collect the predecessor of `key` at every level.
 * @return the node at the bottom level with node.key >= key (or null).
 */
nvm::PPtr<SkNode>
findPredecessors(txn::Tx& tx, nvm::PPtr<PSkiplist> root, uint64_t key,
                 nvm::PPtr<SkNode> preds[kSkipMaxLevel])
{
    auto cur = nvm::PPtr<SkNode>::of(&root->head);
    for (int lvl = kSkipMaxLevel - 1; lvl >= 0; lvl--) {
        WalkBound walk(tx, sizeof(SkNode));
        for (auto nxt = tx.ld(cur->next[lvl]); !nxt.isNull();
             nxt = tx.ld(cur->next[lvl])) {
            walk.step(nxt.raw());
            if (tx.ld(nxt->key) < key)
                cur = nxt;
            else
                break;
        }
        preds[lvl] = cur;
    }
    return tx.ld(cur->next[0]);
}

void
skPutFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PSkiplist>(a.get<uint64_t>());
    auto key = a.get<uint64_t>();
    auto val = a.getString();

    nvm::PPtr<SkNode> preds[kSkipMaxLevel];
    auto hit = findPredecessors(tx, root, key, preds);
    if (!hit.isNull() && tx.ld(hit->key) == key) {
        if (tx.ld(hit->valLen) == val.size()) {
            tx.stBytes(hit->valBytes(), val.data(), val.size());
            return;
        }
        // Different value size: splice in a replacement node.
        uint32_t lvl = tx.ld(hit->level);
        auto fresh = tx.pnew<SkNode>(val.size());
        tx.st(fresh->key, key);
        tx.st(fresh->level, lvl);
        tx.st(fresh->valLen, static_cast<uint32_t>(val.size()));
        tx.stBytes(fresh->valBytes(), val.data(), val.size());
        for (uint32_t i = 0; i < lvl; i++) {
            tx.st(fresh->next[i], tx.ld(hit->next[i]));
            tx.st(preds[i]->next[i], fresh);
        }
        tx.pfree(hit);
        return;
    }

    uint32_t lvl = levelForKey(key);
    auto n = tx.pnew<SkNode>(val.size());
    tx.st(n->key, key);
    tx.st(n->level, lvl);
    tx.st(n->valLen, static_cast<uint32_t>(val.size()));
    tx.stBytes(n->valBytes(), val.data(), val.size());
    // Splice: each touched predecessor next-pointer is a clobbered
    // input (it was read during the search).
    for (uint32_t i = 0; i < lvl; i++) {
        tx.st(n->next[i], tx.ld(preds[i]->next[i]));
        tx.st(preds[i]->next[i], n);
    }
    tx.st(root->count, tx.ld(root->count) + 1);
}

void
skDelFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PSkiplist>(a.get<uint64_t>());
    auto key = a.get<uint64_t>();
    auto* out = reinterpret_cast<bool*>(a.get<uint64_t>());
    if (tx.recovering())
        out = nullptr;  // dangling: the crashed caller's stack is gone

    nvm::PPtr<SkNode> preds[kSkipMaxLevel];
    auto hit = findPredecessors(tx, root, key, preds);
    if (hit.isNull() || tx.ld(hit->key) != key) {
        if (out != nullptr)
            *out = false;
        return;
    }
    uint32_t lvl = tx.ld(hit->level);
    for (uint32_t i = 0; i < lvl; i++) {
        if (tx.ld(preds[i]->next[i]) == hit)
            tx.st(preds[i]->next[i], tx.ld(hit->next[i]));
    }
    tx.st(root->count, tx.ld(root->count) - 1);
    tx.pfree(hit);
    if (out != nullptr)
        *out = true;
}

void
skGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PSkiplist>(a.get<uint64_t>());
    auto key = a.get<uint64_t>();
    auto* out = reinterpret_cast<LookupResult*>(a.get<uint64_t>());
    if (tx.recovering())
        return;  // out points into the crashed process's stack
    out->found = false;

    nvm::PPtr<SkNode> preds[kSkipMaxLevel];
    auto hit = findPredecessors(tx, root, key, preds);
    if (hit.isNull() || tx.ld(hit->key) != key)
        return;
    out->found = true;
    out->len = tx.ld(hit->valLen);
    CNVM_CHECK(out->len <= kMaxValLen, "value too long");
    tx.ldBytes(out->value, hit->valBytes(), out->len);
}

const txn::FuncId kSkPut = txn::registerTxFunc("sk_put", skPutFn);
const txn::FuncId kSkDel = txn::registerTxFunc("sk_del", skDelFn);
const txn::FuncId kSkGet = txn::registerTxFunc("sk_get", skGetFn);

}  // namespace

Skiplist::Skiplist(txn::Engine& eng, uint64_t rootOff) : eng_(eng)
{
    if (rootOff == 0)
        rootOff = rawCreate(eng_, sizeof(PSkiplist));
    root_ = nvm::PPtr<PSkiplist>(rootOff);
}

void
Skiplist::insert(std::string_view key, std::string_view val)
{
    std::lock_guard<sim::SimMutex> g(lock_);
    txn::run(eng_, kSkPut, root_.raw(), keyToU64(key), val);
}

bool
Skiplist::lookup(std::string_view key, LookupResult* out)
{
    std::lock_guard<sim::SimMutex> g(lock_);
    txn::run(eng_, kSkGet, root_.raw(), keyToU64(key),
             reinterpret_cast<uint64_t>(out));
    return out->found;
}

bool
Skiplist::remove(std::string_view key)
{
    std::lock_guard<sim::SimMutex> g(lock_);
    bool removed = false;
    txn::run(eng_, kSkDel, root_.raw(), keyToU64(key),
             reinterpret_cast<uint64_t>(&removed));
    return removed;
}

}  // namespace cnvm::ds
