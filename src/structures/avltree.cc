#include "structures/avltree.h"

#include <algorithm>

#include "common/error.h"

namespace cnvm::ds {

namespace {

using NP = nvm::PPtr<AvlNode>;

int64_t
heightOf(txn::Tx& tx, NP n)
{
    return n.isNull() ? 0 : tx.ld(n->height);
}

void
updateHeight(txn::Tx& tx, NP n)
{
    int64_t h = 1 + std::max(heightOf(tx, tx.ld(n->left)),
                             heightOf(tx, tx.ld(n->right)));
    tx.st(n->height, h);
}

int64_t
balanceOf(txn::Tx& tx, NP n)
{
    return heightOf(tx, tx.ld(n->left)) -
           heightOf(tx, tx.ld(n->right));
}

NP
rotateRight(txn::Tx& tx, NP y)
{
    NP x = tx.ld(y->left);
    NP t2 = tx.ld(x->right);
    tx.st(x->right, y);
    tx.st(y->left, t2);
    updateHeight(tx, y);
    updateHeight(tx, x);
    return x;
}

NP
rotateLeft(txn::Tx& tx, NP x)
{
    NP y = tx.ld(x->right);
    NP t2 = tx.ld(y->left);
    tx.st(y->left, x);
    tx.st(x->right, t2);
    updateHeight(tx, x);
    updateHeight(tx, y);
    return y;
}

NP
rebalance(txn::Tx& tx, NP n)
{
    updateHeight(tx, n);
    int64_t b = balanceOf(tx, n);
    if (b > 1) {
        if (balanceOf(tx, tx.ld(n->left)) < 0)
            tx.st(n->left, rotateLeft(tx, tx.ld(n->left)));
        return rotateRight(tx, n);
    }
    if (b < -1) {
        if (balanceOf(tx, tx.ld(n->right)) > 0)
            tx.st(n->right, rotateRight(tx, tx.ld(n->right)));
        return rotateLeft(tx, n);
    }
    return n;
}

NP
insertRec(txn::Tx& tx, NP n, uint64_t key, uint64_t value, bool* added,
          int depth)
{
    CNVM_CHECK(depth < kMaxTreeDepth, "tree too deep: a link cycle");
    if (n.isNull()) {
        auto fresh = tx.pnew<AvlNode>();
        tx.st(fresh->key, key);
        tx.st(fresh->value, value);
        tx.st(fresh->height, int64_t(1));
        *added = true;
        return fresh;
    }
    uint64_t k = tx.ld(n->key);
    if (key == k) {
        tx.st(n->value, value);
        *added = false;
        return n;
    }
    if (key < k) {
        tx.st(n->left,
              insertRec(tx, tx.ld(n->left), key, value, added, depth + 1));
    } else {
        tx.st(n->right,
              insertRec(tx, tx.ld(n->right), key, value, added, depth + 1));
    }
    return rebalance(tx, n);
}

NP
eraseRec(txn::Tx& tx, NP n, uint64_t key, bool* removed, int depth)
{
    CNVM_CHECK(depth < kMaxTreeDepth, "tree too deep: a link cycle");
    if (n.isNull()) {
        *removed = false;
        return n;
    }
    uint64_t k = tx.ld(n->key);
    if (key < k) {
        tx.st(n->left,
              eraseRec(tx, tx.ld(n->left), key, removed, depth + 1));
    } else if (key > k) {
        tx.st(n->right,
              eraseRec(tx, tx.ld(n->right), key, removed, depth + 1));
    } else {
        *removed = true;
        NP l = tx.ld(n->left);
        NP r = tx.ld(n->right);
        if (l.isNull() || r.isNull()) {
            NP child = l.isNull() ? r : l;
            tx.pfree(n);
            return child;
        }
        // Two children: replace with the in-order successor's payload
        // and delete the successor from the right subtree.
        WalkBound walk(tx, sizeof(AvlNode));
        NP succ = r;
        for (NP sl = tx.ld(succ->left); !sl.isNull();
             sl = tx.ld(succ->left)) {
            walk.step();
            succ = sl;
        }
        tx.st(n->key, tx.ld(succ->key));
        tx.st(n->value, tx.ld(succ->value));
        bool dummy = false;
        tx.st(n->right,
              eraseRec(tx, r, tx.ld(succ->key), &dummy, depth + 1));
    }
    return rebalance(tx, n);
}

long
validateRec(const AvlNode* n, uint64_t lo, uint64_t hi, bool* ok,
            int depth)
{
    if (n == nullptr)
        return 0;
    if (depth >= kMaxTreeDepth) {
        *ok = false;  // a link cycle
        return 0;
    }
    if (n->key < lo || n->key > hi)
        *ok = false;
    long lh = validateRec(n->left.get(), lo,
                          n->key == 0 ? 0 : n->key - 1, ok, depth + 1);
    long rh = validateRec(n->right.get(), n->key + 1, hi, ok, depth + 1);
    if (lh - rh > 1 || rh - lh > 1)
        *ok = false;
    long h = 1 + std::max(lh, rh);
    if (n->height != h)
        *ok = false;
    return h;
}

}  // namespace

nvm::PPtr<PAvlTree>
AvlMap::create(txn::Tx& tx)
{
    return tx.pnew<PAvlTree>();
}

bool
AvlMap::put(txn::Tx& tx, uint64_t key, uint64_t value)
{
    bool added = false;
    tx.st(root_->root,
          insertRec(tx, tx.ld(root_->root), key, value, &added, 0));
    if (added)
        tx.st(root_->count, tx.ld(root_->count) + 1);
    return added;
}

bool
AvlMap::get(txn::Tx& tx, uint64_t key, uint64_t* value) const
{
    NP n = treeFind(tx, tx.ld(root_->root), key);
    if (n.isNull())
        return false;
    if (value != nullptr)
        *value = tx.ld(n->value);
    return true;
}

bool
AvlMap::erase(txn::Tx& tx, uint64_t key)
{
    bool removed = false;
    tx.st(root_->root,
          eraseRec(tx, tx.ld(root_->root), key, &removed, 0));
    if (removed)
        tx.st(root_->count, tx.ld(root_->count) - 1);
    return removed;
}

bool
AvlMap::floor(txn::Tx& tx, uint64_t key, uint64_t* foundKey,
              uint64_t* value) const
{
    return treeFloor(tx, tx.ld(root_->root), key, foundKey, value,
                     [&](NP n) { return tx.ld(n->value); });
}

uint64_t
AvlMap::size(txn::Tx& tx) const
{
    return tx.ld(root_->count);
}

long
AvlMap::validate() const
{
    bool ok = true;
    long h = validateRec(root_->root.get(), 0, ~0ULL, &ok, 0);
    return ok ? h : -1;
}

}  // namespace cnvm::ds
