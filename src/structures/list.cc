#include "structures/list.h"

#include <mutex>
#include <shared_mutex>

#include "txn/txrun.h"

namespace cnvm::ds {

namespace {

void
listPutFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PList>(a.get<uint64_t>());
    auto key = a.getString();
    auto val = a.getString();
    // A new key is prepended: the head pointer is the only clobbered
    // input (Figure 2a: "lst->hd is a clobbered input").
    if (chainPut(tx, root->head, key, val))
        tx.st(root->count, tx.ld(root->count) + 1);
}

void
listDelFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PList>(a.get<uint64_t>());
    auto key = a.getString();
    chainUnlink(tx, root->head, key, &root->count);
}

void
listGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PList>(a.get<uint64_t>());
    auto key = a.getString();
    auto* out = reinterpret_cast<LookupResult*>(a.get<uint64_t>());
    if (tx.recovering())
        return;  // out points into the crashed process's stack
    chainGet(tx, root->head, key, out);
}

const txn::FuncId kListPut = txn::registerTxFunc("list_put", listPutFn);
const txn::FuncId kListDel = txn::registerTxFunc("list_del", listDelFn);
const txn::FuncId kListGet = txn::registerTxFunc("list_get", listGetFn);

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
