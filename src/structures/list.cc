#include "structures/list.h"

#include <cstring>
#include <mutex>
#include <shared_mutex>

#include "common/error.h"

namespace cnvm::ds {

namespace {

/** Interposed key comparison against a node's inline key bytes. */
bool
keyEquals(txn::Tx& tx, nvm::PPtr<ListNode> n, std::string_view key)
{
    uint32_t klen = tx.ld(n->keyLen);
    if (klen != key.size())
        return false;
    char buf[kMaxKeyLen];
    CNVM_CHECK(klen <= kMaxKeyLen, "key too long");
    tx.ldBytes(buf, n->keyBytes(), klen);
    return std::memcmp(buf, key.data(), klen) == 0;
}

void removeAndReinsert(txn::Tx& tx, nvm::PPtr<PList> root,
                       std::string_view key, std::string_view val);

nvm::PPtr<ListNode>
makeNode(txn::Tx& tx, std::string_view key, std::string_view val,
         nvm::PPtr<ListNode> next)
{
    auto n = tx.pnew<ListNode>(key.size() + val.size());
    tx.st(n->next, next);
    tx.st(n->keyLen, static_cast<uint32_t>(key.size()));
    tx.st(n->valLen, static_cast<uint32_t>(val.size()));
    tx.stBytes(n->keyBytes(), key.data(), key.size());
    tx.stBytes(n->valBytes(static_cast<uint32_t>(key.size())),
               val.data(), val.size());
    return n;
}

void
listPutFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PList>(a.get<uint64_t>());
    auto key = a.getString();
    auto val = a.getString();

    // Replace in place if the key exists.
    WalkBound walk(tx, sizeof(ListNode));
    for (auto n = tx.ld(root->head); !n.isNull(); n = tx.ld(n->next)) {
        walk.step();
        if (!keyEquals(tx, n, key))
            continue;
        if (tx.ld(n->valLen) == val.size()) {
            tx.stBytes(n->valBytes(static_cast<uint32_t>(key.size())),
               val.data(), val.size());
        } else {
            // Different size: swap the node out.
            // (Simplest correct policy; rare in our workloads.)
            removeAndReinsert(tx, root, key, val);
        }
        return;
    }
    // Prepend: the head pointer is the only clobbered input
    // (Figure 2a: "lst->hd is a clobbered input").
    auto head = tx.ld(root->head);
    auto n = makeNode(tx, key, val, head);
    tx.st(root->head, n);
    tx.st(root->count, tx.ld(root->count) + 1);
}

void
listDelFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PList>(a.get<uint64_t>());
    auto key = a.getString();
    auto prev = nvm::PPtr<ListNode>();
    WalkBound walk(tx, sizeof(ListNode));
    for (auto n = tx.ld(root->head); !n.isNull();
         prev = n, n = tx.ld(n->next)) {
        walk.step();
        if (!keyEquals(tx, n, key))
            continue;
        auto next = tx.ld(n->next);
        if (prev.isNull())
            tx.st(root->head, next);
        else
            tx.st(prev->next, next);
        tx.st(root->count, tx.ld(root->count) - 1);
        tx.pfree(n);
        return;
    }
}

void
listGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PList>(a.get<uint64_t>());
    auto key = a.getString();
    auto* out = reinterpret_cast<LookupResult*>(a.get<uint64_t>());
    if (tx.recovering())
        return;  // out points into the crashed process's stack
    out->found = false;
    WalkBound walk(tx, sizeof(ListNode));
    for (auto n = tx.ld(root->head); !n.isNull(); n = tx.ld(n->next)) {
        walk.step();
        if (!keyEquals(tx, n, key))
            continue;
        out->found = true;
        out->len = tx.ld(n->valLen);
        CNVM_CHECK(out->len <= kMaxValLen, "value too long");
        tx.ldBytes(out->value,
                   n->valBytes(static_cast<uint32_t>(key.size())),
                   out->len);
        return;
    }
}

const txn::FuncId kListPut = txn::registerTxFunc("list_put", listPutFn);
const txn::FuncId kListDel = txn::registerTxFunc("list_del", listDelFn);
const txn::FuncId kListGet = txn::registerTxFunc("list_get", listGetFn);
/**
 * Replace with a different-sized value: delete + fresh insert within
 * the same transaction.
 */
void
removeAndReinsert(txn::Tx& tx, nvm::PPtr<PList> root,
                  std::string_view key, std::string_view val)
{
    auto prev = nvm::PPtr<ListNode>();
    WalkBound walk(tx, sizeof(ListNode));
    for (auto n = tx.ld(root->head); !n.isNull();
         prev = n, n = tx.ld(n->next)) {
        walk.step();
        if (!keyEquals(tx, n, key))
            continue;
        auto next = tx.ld(n->next);
        auto fresh = makeNode(tx, key, val, next);
        if (prev.isNull())
            tx.st(root->head, fresh);
        else
            tx.st(prev->next, fresh);
        tx.pfree(n);
        return;
    }
}

}  // namespace

List::List(txn::Engine& eng, uint64_t rootOff) : eng_(eng)
{
    if (rootOff == 0)
        rootOff = rawCreate(eng_, sizeof(PList));
    root_ = nvm::PPtr<PList>(rootOff);
}

void
List::insert(std::string_view key, std::string_view val)
{
    std::lock_guard<sim::SimSharedMutex> g(lock_);
    txn::run(eng_, kListPut, root_.raw(), key, val);
}

bool
List::lookup(std::string_view key, LookupResult* out)
{
    std::shared_lock<sim::SimSharedMutex> g(lock_);
    txn::run(eng_, kListGet, root_.raw(), key,
             reinterpret_cast<uint64_t>(out));
    return out->found;
}

bool
List::remove(std::string_view key)
{
    std::lock_guard<sim::SimSharedMutex> g(lock_);
    uint64_t before = root_->count;
    txn::run(eng_, kListDel, root_.raw(), key);
    return root_->count != before;
}

}  // namespace cnvm::ds
