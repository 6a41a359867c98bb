#include "structures/bptree.h"

#include <cstring>
#include <mutex>

#include "common/error.h"
#include "common/rand.h"
#include "txn/txrun.h"

namespace cnvm::ds {

namespace {

using NP = nvm::PPtr<BpNode>;

/** Fixed-size key image: input padded with zeros to 32 bytes. */
struct KeyImage {
    uint8_t b[kBpKeyLen];
};

KeyImage
keyImage(std::string_view key)
{
    KeyImage k{};
    CNVM_CHECK(key.size() <= kBpKeyLen, "B+Tree key too long");
    std::memcpy(k.b, key.data(), key.size());
    return k;
}

/** Interposed load of slot `i`'s key. */
KeyImage
loadKey(txn::Tx& tx, NP n, unsigned i)
{
    KeyImage k;
    tx.ldBytes(k.b, n->keys[i], kBpKeyLen);
    return k;
}

int
cmpKeys(const KeyImage& a, const KeyImage& b)
{
    return std::memcmp(a.b, b.b, kBpKeyLen);
}

/**
 * First slot whose key is >= `key` (== nKeys if none). A torn node's
 * key count past kBpMaxKeys fails here, before any slot is read.
 */
unsigned
lowerBound(txn::Tx& tx, NP n, const KeyImage& key)
{
    unsigned nk = tx.ld(n->nKeys);
    CNVM_CHECK(nk <= kBpMaxKeys, "B+Tree node holds more keys than fit");
    unsigned i = 0;
    while (i < nk && cmpKeys(loadKey(tx, n, i), key) < 0)
        i++;
    return i;
}

/** Where `key` falls in `node`. */
struct Slot {
    NP node;
    unsigned i = 0;  ///< lowerBound(key)
    unsigned nKeys = 0;
    bool hit = false;  ///< slot i holds `key` itself

    /** The child to follow: equal keys route right, since a leaf
     *  split promotes the right leaf's first key. */
    unsigned child() const { return hit ? i + 1 : i; }
};

Slot
findSlot(txn::Tx& tx, NP n, const KeyImage& key)
{
    unsigned i = lowerBound(tx, n, key);
    unsigned nk = tx.ld(n->nKeys);
    return {n, i, nk, i < nk && cmpKeys(loadKey(tx, n, i), key) == 0};
}

/** Load internal node `n`'s child `i`; a torn null child fails here. */
NP
childAt(txn::Tx& tx, NP n, unsigned i)
{
    NP c = tx.ld(n->kids[i]);
    CNVM_CHECK(!c.isNull(), "B+Tree internal node has a null child");
    return c;
}

/**
 * The descent of lookups and removes, bounded by WalkBound: `key`'s
 * slot in the leaf that would hold it (a null node if the tree is
 * empty).
 */
Slot
findInLeaf(txn::Tx& tx, nvm::PPtr<PBpTree> t, const KeyImage& key)
{
    WalkBound walk(tx, sizeof(BpNode));
    NP cur = tx.ld(t->root);
    if (cur.isNull())
        return {};
    while (tx.ld(cur->isLeaf) == 0) {
        walk.step();
        cur = childAt(tx, cur, findSlot(tx, cur, key).child());
    }
    return findSlot(tx, cur, key);
}

/** Move key/val/kid slots within or between nodes (interposed). */
void
copySlots(txn::Tx& tx, NP dst, unsigned dstIdx, NP src,
          unsigned srcIdx, unsigned n, bool leaf)
{
    if (n == 0)
        return;
    // Stage through a stack buffer so overlapping moves are safe.
    uint8_t keys[kBpMaxKeys][kBpKeyLen];
    nvm::PPtr<uint8_t> vals[kBpMaxKeys];
    uint32_t lens[kBpMaxKeys];
    nvm::PPtr<BpNode> kids[kBpMaxKeys + 1];
    tx.ldBytes(keys, src->keys[srcIdx], n * kBpKeyLen);
    if (leaf) {
        tx.ldBytes(vals, &src->vals[srcIdx], n * sizeof(vals[0]));
        tx.ldBytes(lens, &src->valLens[srcIdx], n * sizeof(lens[0]));
    } else {
        tx.ldBytes(kids, &src->kids[srcIdx], (n + 1) * sizeof(kids[0]));
    }
    tx.stBytes(dst->keys[dstIdx], keys, n * kBpKeyLen);
    if (leaf) {
        tx.stBytes(&dst->vals[dstIdx], vals, n * sizeof(vals[0]));
        tx.stBytes(&dst->valLens[dstIdx], lens, n * sizeof(lens[0]));
    } else {
        tx.stBytes(&dst->kids[dstIdx], kids, (n + 1) * sizeof(kids[0]));
    }
}

/**
 * Split the full child `kids[idx]` of `parent` (parent not full).
 * Internal split moves the median up; leaf split copies the upper
 * half and promotes its first key as separator.
 */
void
splitChild(txn::Tx& tx, NP parent, unsigned idx)
{
    NP child = tx.ld(parent->kids[idx]);
    bool leaf = tx.ld(child->isLeaf) != 0;
    auto right = tx.pnew<BpNode>();
    tx.st(right->isLeaf, tx.ld(child->isLeaf));

    constexpr unsigned kMid = kBpMaxKeys / 2;
    KeyImage sep;
    unsigned rightCount;
    if (leaf) {
        rightCount = kBpMaxKeys - kMid;
        copySlots(tx, right, 0, child, kMid, rightCount, true);
        sep = loadKey(tx, right, 0);
        tx.st(right->nextLeaf, tx.ld(child->nextLeaf));
        tx.st(child->nextLeaf, NP(right));
        tx.st(child->nKeys, kMid);
    } else {
        sep = loadKey(tx, child, kMid);
        rightCount = kBpMaxKeys - kMid - 1;
        copySlots(tx, right, 0, child, kMid + 1, rightCount, false);
        tx.st(child->nKeys, kMid);
    }
    tx.st(right->nKeys, rightCount);

    // Shift parent slots right to make room at idx.
    unsigned pk = tx.ld(parent->nKeys);
    for (unsigned i = pk; i > idx; i--) {
        KeyImage k = loadKey(tx, parent, i - 1);
        tx.stBytes(parent->keys[i], k.b, kBpKeyLen);
        tx.st(parent->kids[i + 1], tx.ld(parent->kids[i]));
    }
    tx.stBytes(parent->keys[idx], sep.b, kBpKeyLen);
    tx.st(parent->kids[idx + 1], NP(right));
    tx.st(parent->nKeys, pk + 1);
}

void
bpPutFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto t = nvm::PPtr<PBpTree>(a.get<uint64_t>());
    KeyImage key = keyImage(a.getString());
    auto val = a.getString();

    NP root = tx.ld(t->root);
    if (root.isNull()) {
        root = tx.pnew<BpNode>();
        tx.st(root->isLeaf, 1u);
        tx.st(t->root, root);
    }
    if (tx.ld(root->nKeys) == kBpMaxKeys) {
        // Grow: new root with the old root as its only child.
        auto newRoot = tx.pnew<BpNode>();
        tx.st(newRoot->isLeaf, 0u);
        tx.st(newRoot->kids[0], root);
        tx.st(t->root, newRoot);
        splitChild(tx, newRoot, 0);
        root = newRoot;
    }

    // Descend, splitting full children proactively.
    WalkBound walk(tx, sizeof(BpNode));
    NP cur = root;
    while (tx.ld(cur->isLeaf) == 0) {
        walk.step();
        unsigned i = findSlot(tx, cur, key).child();
        NP child = childAt(tx, cur, i);
        if (tx.ld(child->nKeys) == kBpMaxKeys) {
            splitChild(tx, cur, i);
            if (cmpKeys(loadKey(tx, cur, i), key) <= 0)
                i++;
            child = tx.ld(cur->kids[i]);
        }
        cur = child;
    }

    Slot s = findSlot(tx, cur, key);
    if (s.hit) {
        // Replace.
        auto old = tx.ld(cur->vals[s.i]);
        tx.st(cur->vals[s.i], makeValue(tx, val));
        tx.st(cur->valLens[s.i], static_cast<uint32_t>(val.size()));
        if (!old.isNull())
            tx.pfree(old.raw());
        return;
    }
    // Shift and insert.
    if (s.i < s.nKeys)
        copySlots(tx, cur, s.i + 1, cur, s.i, s.nKeys - s.i, true);
    tx.stBytes(cur->keys[s.i], key.b, kBpKeyLen);
    tx.st(cur->vals[s.i], makeValue(tx, val));
    tx.st(cur->valLens[s.i], static_cast<uint32_t>(val.size()));
    tx.st(cur->nKeys, s.nKeys + 1);
    tx.st(t->count, tx.ld(t->count) + 1);
}

void
bpGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto t = nvm::PPtr<PBpTree>(a.get<uint64_t>());
    KeyImage key = keyImage(a.getString());
    auto* out = reinterpret_cast<LookupResult*>(a.get<uint64_t>());
    if (tx.recovering())
        return;  // out points into the crashed process's stack
    out->found = false;
    Slot s = findInLeaf(tx, t, key);
    if (!s.hit)
        return;
    out->found = true;
    out->len = tx.ld(s.node->valLens[s.i]);
    loadValue(tx, tx.ld(s.node->vals[s.i]), out->len, out->value);
}

/**
 * Removal simply deletes the leaf slot (no rebalancing/merging —
 * B+Trees under insert-dominated workloads tolerate sparse leaves;
 * the paper's YCSB benchmarks never shrink the tree).
 */
void
bpDelFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto t = nvm::PPtr<PBpTree>(a.get<uint64_t>());
    KeyImage key = keyImage(a.getString());
    auto* out = reinterpret_cast<bool*>(a.get<uint64_t>());
    if (tx.recovering())
        out = nullptr;  // dangling: the crashed caller's stack is gone

    Slot s = findInLeaf(tx, t, key);
    if (s.hit) {
        NP leaf = s.node;
        auto old = tx.ld(leaf->vals[s.i]);
        if (s.i + 1 < s.nKeys)
            copySlots(tx, leaf, s.i, leaf, s.i + 1, s.nKeys - s.i - 1,
                      true);
        tx.st(leaf->nKeys, s.nKeys - 1);
        if (!old.isNull())
            tx.pfree(old.raw());
        tx.st(t->count, tx.ld(t->count) - 1);
    }
    if (out != nullptr)
        *out = s.hit;
}

const txn::FuncId kBpPut = txn::registerTxFunc("bp_put", bpPutFn);
const txn::FuncId kBpGet = txn::registerTxFunc("bp_get", bpGetFn);
const txn::FuncId kBpDel = txn::registerTxFunc("bp_del", bpDelFn);

/** Direct traversal for invariant checking. */
long
validateRec(const BpNode* n, const uint8_t* lo, const uint8_t* hi,
            int depth, int* leafDepth, bool* ok)
{
    if (n == nullptr || depth >= kMaxTreeDepth) {
        *ok = false;  // a missing child, or a link cycle
        return 0;
    }
    long count = 0;
    unsigned nk = n->nKeys;
    if (nk > kBpMaxKeys) {
        *ok = false;
        return 0;
    }
    for (unsigned i = 0; i + 1 < nk; i++) {
        if (std::memcmp(n->keys[i], n->keys[i + 1], kBpKeyLen) >= 0)
            *ok = false;
    }
    for (unsigned i = 0; i < nk; i++) {
        if (lo != nullptr && std::memcmp(n->keys[i], lo, kBpKeyLen) < 0)
            *ok = false;
        if (hi != nullptr &&
            std::memcmp(n->keys[i], hi, kBpKeyLen) >= 0) {
            *ok = false;
        }
    }
    if (n->isLeaf != 0) {
        if (*leafDepth < 0)
            *leafDepth = depth;
        else if (*leafDepth != depth)
            *ok = false;
        return nk;
    }
    for (unsigned i = 0; i <= nk; i++) {
        const uint8_t* clo = i == 0 ? lo : n->keys[i - 1];
        const uint8_t* chi = i == nk ? hi : n->keys[i];
        count += validateRec(n->kids[i].get(), clo, chi, depth + 1,
                             leafDepth, ok);
    }
    return count;
}

/** The key-sharded lock that covers `key`. */
sim::SimSharedMutex&
keyLock(sim::LockShard& locks, std::string_view key)
{
    return locks.forOffset(fnv1a(key.data(), key.size()) << 4);
}

/**
 * The tree-wide lock in `Lock`'s mode, held only under OS threads: the
 * logical executor runs one operation at a time, and there the key
 * locks alone model contention.
 */
template <typename Lock>
Lock
treeLock(std::shared_mutex& m)
{
    Lock l(m, std::defer_lock);
    if (sim::cur() == nullptr)
        l.lock();
    return l;
}

}  // namespace

BpTree::BpTree(txn::Engine& eng, uint64_t rootOff, const KvConfig& cfg)
    : eng_(eng), keyLocks_(cfg.lockShards)
{
    if (rootOff == 0)
        rootOff = rawCreate(eng_, sizeof(PBpTree));
    root_ = nvm::PPtr<PBpTree>(rootOff);
}

void
BpTree::insert(std::string_view key, std::string_view val)
{
    std::lock_guard<sim::SimSharedMutex> g(keyLock(keyLocks_, key));
    auto tl = treeLock<std::unique_lock<std::shared_mutex>>(realLock_);
    txn::run(eng_, kBpPut, root_.raw(), key, val);
}

bool
BpTree::lookup(std::string_view key, LookupResult* out)
{
    std::shared_lock<sim::SimSharedMutex> g(keyLock(keyLocks_, key));
    auto tl = treeLock<std::shared_lock<std::shared_mutex>>(realLock_);
    txn::run(eng_, kBpGet, root_.raw(), key,
             reinterpret_cast<uint64_t>(out));
    return out->found;
}

bool
BpTree::remove(std::string_view key)
{
    std::lock_guard<sim::SimSharedMutex> g(keyLock(keyLocks_, key));
    auto tl = treeLock<std::unique_lock<std::shared_mutex>>(realLock_);
    bool removed = false;
    txn::run(eng_, kBpDel, root_.raw(), key,
             reinterpret_cast<uint64_t>(&removed));
    return removed;
}

long
BpTree::validate() const
{
    const BpNode* r = root_->root.get();
    if (r == nullptr)
        return 0;
    bool ok = true;
    int leafDepth = -1;
    long count =
        validateRec(r, nullptr, nullptr, 0, &leafDepth, &ok);
    return ok ? count : -1;
}

}  // namespace cnvm::ds
