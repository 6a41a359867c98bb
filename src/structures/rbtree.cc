#include "structures/rbtree.h"

#include <mutex>
#include <shared_mutex>

#include "common/error.h"
#include "txn/txrun.h"

namespace cnvm::ds {

namespace {

using NP = nvm::PPtr<RbNode>;

constexpr uint32_t kRed = 0;
constexpr uint32_t kBlack = 1;

uint32_t
colorOf(txn::Tx& tx, NP n)
{
    return n.isNull() ? kBlack : tx.ld(n->color);
}

NP
parentOf(txn::Tx& tx, NP n)
{
    return n.isNull() ? NP() : tx.ld(n->parent);
}

void
setColor(txn::Tx& tx, NP n, uint32_t c)
{
    if (!n.isNull())
        tx.st(n->color, c);
}

void
rotateLeft(txn::Tx& tx, nvm::PPtr<PRbTree> t, NP x)
{
    NP y = tx.ld(x->right);
    NP yl = tx.ld(y->left);
    tx.st(x->right, yl);
    if (!yl.isNull())
        tx.st(yl->parent, x);
    NP xp = tx.ld(x->parent);
    tx.st(y->parent, xp);
    if (xp.isNull())
        tx.st(t->root, y);
    else if (tx.ld(xp->left) == x)
        tx.st(xp->left, y);
    else
        tx.st(xp->right, y);
    tx.st(y->left, x);
    tx.st(x->parent, y);
}

void
rotateRight(txn::Tx& tx, nvm::PPtr<PRbTree> t, NP x)
{
    NP y = tx.ld(x->left);
    NP yr = tx.ld(y->right);
    tx.st(x->left, yr);
    if (!yr.isNull())
        tx.st(yr->parent, x);
    NP xp = tx.ld(x->parent);
    tx.st(y->parent, xp);
    if (xp.isNull())
        tx.st(t->root, y);
    else if (tx.ld(xp->right) == x)
        tx.st(xp->right, y);
    else
        tx.st(xp->left, y);
    tx.st(y->right, x);
    tx.st(x->parent, y);
}

void
insertFixup(txn::Tx& tx, nvm::PPtr<PRbTree> t, NP z)
{
    WalkBound walk(tx, sizeof(RbNode));
    while (colorOf(tx, parentOf(tx, z)) == kRed) {
        walk.step();
        NP zp = parentOf(tx, z);
        NP zpp = parentOf(tx, zp);
        if (zp == tx.ld(zpp->left)) {
            NP y = tx.ld(zpp->right);  // uncle
            if (colorOf(tx, y) == kRed) {
                setColor(tx, zp, kBlack);
                setColor(tx, y, kBlack);
                setColor(tx, zpp, kRed);
                z = zpp;
            } else {
                if (z == tx.ld(zp->right)) {
                    z = zp;
                    rotateLeft(tx, t, z);
                    zp = parentOf(tx, z);
                    zpp = parentOf(tx, zp);
                }
                setColor(tx, zp, kBlack);
                setColor(tx, zpp, kRed);
                rotateRight(tx, t, zpp);
            }
        } else {
            NP y = tx.ld(zpp->left);
            if (colorOf(tx, y) == kRed) {
                setColor(tx, zp, kBlack);
                setColor(tx, y, kBlack);
                setColor(tx, zpp, kRed);
                z = zpp;
            } else {
                if (z == tx.ld(zp->left)) {
                    z = zp;
                    rotateRight(tx, t, z);
                    zp = parentOf(tx, z);
                    zpp = parentOf(tx, zp);
                }
                setColor(tx, zp, kBlack);
                setColor(tx, zpp, kRed);
                rotateLeft(tx, t, zpp);
            }
        }
    }
    setColor(tx, tx.ld(t->root), kBlack);
}

/** Replace subtree rooted at u with the one rooted at v. */
void
transplant(txn::Tx& tx, nvm::PPtr<PRbTree> t, NP u, NP v)
{
    NP up = tx.ld(u->parent);
    if (up.isNull())
        tx.st(t->root, v);
    else if (tx.ld(up->left) == u)
        tx.st(up->left, v);
    else
        tx.st(up->right, v);
    if (!v.isNull())
        tx.st(v->parent, up);
}

/**
 * CLRS delete-fixup adapted to null leaves: `x` may be null, so the
 * current parent is tracked explicitly.
 */
void
deleteFixup(txn::Tx& tx, nvm::PPtr<PRbTree> t, NP x, NP xParent)
{
    WalkBound walk(tx, sizeof(RbNode));
    while (x != tx.ld(t->root) && colorOf(tx, x) == kBlack) {
        walk.step();
        if (x == tx.ld(xParent->left)) {
            NP w = tx.ld(xParent->right);
            if (colorOf(tx, w) == kRed) {
                setColor(tx, w, kBlack);
                setColor(tx, xParent, kRed);
                rotateLeft(tx, t, xParent);
                w = tx.ld(xParent->right);
            }
            if (colorOf(tx, tx.ld(w->left)) == kBlack &&
                colorOf(tx, tx.ld(w->right)) == kBlack) {
                setColor(tx, w, kRed);
                x = xParent;
                xParent = parentOf(tx, x);
            } else {
                if (colorOf(tx, tx.ld(w->right)) == kBlack) {
                    setColor(tx, tx.ld(w->left), kBlack);
                    setColor(tx, w, kRed);
                    rotateRight(tx, t, w);
                    w = tx.ld(xParent->right);
                }
                setColor(tx, w, colorOf(tx, xParent));
                setColor(tx, xParent, kBlack);
                setColor(tx, tx.ld(w->right), kBlack);
                rotateLeft(tx, t, xParent);
                x = tx.ld(t->root);
                xParent = NP();
            }
        } else {
            NP w = tx.ld(xParent->left);
            if (colorOf(tx, w) == kRed) {
                setColor(tx, w, kBlack);
                setColor(tx, xParent, kRed);
                rotateRight(tx, t, xParent);
                w = tx.ld(xParent->left);
            }
            if (colorOf(tx, tx.ld(w->right)) == kBlack &&
                colorOf(tx, tx.ld(w->left)) == kBlack) {
                setColor(tx, w, kRed);
                x = xParent;
                xParent = parentOf(tx, x);
            } else {
                if (colorOf(tx, tx.ld(w->left)) == kBlack) {
                    setColor(tx, tx.ld(w->right), kBlack);
                    setColor(tx, w, kRed);
                    rotateLeft(tx, t, w);
                    w = tx.ld(xParent->left);
                }
                setColor(tx, w, colorOf(tx, xParent));
                setColor(tx, xParent, kBlack);
                setColor(tx, tx.ld(w->left), kBlack);
                rotateRight(tx, t, xParent);
                x = tx.ld(t->root);
                xParent = NP();
            }
        }
    }
    setColor(tx, x, kBlack);
}

/**
 * Insert `key`, or find the node that holds it: the one descent and
 * attach of RbTree and RbMap. `setValue(node, fresh)` stores the value,
 * on a fresh node after its key and color and before its parent link.
 * @return true if the key was new.
 */
template <typename SetValue>
bool
rbInsert(txn::Tx& tx, nvm::PPtr<PRbTree> t, uint64_t key,
         SetValue setValue)
{
    WalkBound walk(tx, sizeof(RbNode));
    NP parent;
    for (NP cur = tx.ld(t->root); !cur.isNull();) {
        walk.step();
        uint64_t k = tx.ld(cur->key);
        if (key == k) {
            setValue(cur, false);
            return false;
        }
        parent = cur;
        cur = key < k ? tx.ld(cur->left) : tx.ld(cur->right);
    }

    auto z = tx.pnew<RbNode>();
    tx.st(z->key, key);
    tx.st(z->color, kRed);
    setValue(z, true);
    tx.st(z->parent, parent);
    if (parent.isNull())
        tx.st(t->root, z);
    else if (key < tx.ld(parent->key))
        tx.st(parent->left, z);
    else
        tx.st(parent->right, z);
    insertFixup(tx, t, z);
    tx.st(t->count, tx.ld(t->count) + 1);
    return true;
}

/**
 * CLRS unlink of `key`'s node, the one delete of RbTree and RbMap:
 * transplant, successor splice and deleteFixup. The caller frees the
 * node and decrements the count.
 * @return the unlinked node, or null if the key is absent.
 */
NP
rbUnlink(txn::Tx& tx, nvm::PPtr<PRbTree> t, uint64_t key)
{
    NP z = treeFind(tx, tx.ld(t->root), key);
    if (z.isNull())
        return z;

    NP y = z;
    uint32_t yOrigColor = tx.ld(y->color);
    NP x;
    NP xParent;
    if (tx.ld(z->left).isNull()) {
        x = tx.ld(z->right);
        xParent = tx.ld(z->parent);
        transplant(tx, t, z, x);
    } else if (tx.ld(z->right).isNull()) {
        x = tx.ld(z->left);
        xParent = tx.ld(z->parent);
        transplant(tx, t, z, x);
    } else {
        // y := minimum of z's right subtree.
        WalkBound walk(tx, sizeof(RbNode));
        y = tx.ld(z->right);
        for (NP l = tx.ld(y->left); !l.isNull(); l = tx.ld(y->left)) {
            walk.step();
            y = l;
        }
        yOrigColor = tx.ld(y->color);
        x = tx.ld(y->right);
        if (tx.ld(y->parent) == z) {
            xParent = y;
        } else {
            xParent = tx.ld(y->parent);
            transplant(tx, t, y, x);
            NP zr = tx.ld(z->right);
            tx.st(y->right, zr);
            tx.st(zr->parent, y);
        }
        transplant(tx, t, z, y);
        NP zl = tx.ld(z->left);
        tx.st(y->left, zl);
        tx.st(zl->parent, y);
        tx.st(y->color, tx.ld(z->color));
    }
    if (yOrigColor == kBlack)
        deleteFixup(tx, t, x, xParent);
    return z;
}

void
rbPutFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto t = nvm::PPtr<PRbTree>(a.get<uint64_t>());
    auto key = a.get<uint64_t>();
    auto val = a.getString();
    auto len = static_cast<uint32_t>(val.size());
    rbInsert(tx, t, key, [&](NP n, bool fresh) {
        if (fresh) {
            tx.st(n->valLen, len);
            tx.st(n->val, makeValue(tx, val));
            return;
        }
        // Replace the value buffer.
        auto old = tx.ld(n->val);
        tx.st(n->val, makeValue(tx, val));
        tx.st(n->valLen, len);
        if (!old.isNull())
            tx.pfree(old.raw());
    });
}

void
rbDelFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto t = nvm::PPtr<PRbTree>(a.get<uint64_t>());
    auto key = a.get<uint64_t>();
    auto* out = reinterpret_cast<bool*>(a.get<uint64_t>());
    if (tx.recovering())
        out = nullptr;  // dangling: the crashed caller's stack is gone
    NP z = rbUnlink(tx, t, key);
    if (!z.isNull()) {
        auto buf = tx.ld(z->val);
        if (!buf.isNull())
            tx.pfree(buf.raw());
        tx.pfree(z);
        tx.st(t->count, tx.ld(t->count) - 1);
    }
    if (out != nullptr)
        *out = !z.isNull();
}

void
rbGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto t = nvm::PPtr<PRbTree>(a.get<uint64_t>());
    auto key = a.get<uint64_t>();
    auto* out = reinterpret_cast<LookupResult*>(a.get<uint64_t>());
    if (tx.recovering())
        return;  // out points into the crashed process's stack
    out->found = false;
    NP n = treeFind(tx, tx.ld(t->root), key);
    if (n.isNull())
        return;
    out->found = true;
    out->len = tx.ld(n->valLen);
    loadValue(tx, tx.ld(n->val), out->len, out->value);
}

const txn::FuncId kRbPut = txn::registerTxFunc("rb_put", rbPutFn);
const txn::FuncId kRbDel = txn::registerTxFunc("rb_del", rbDelFn);
const txn::FuncId kRbGet = txn::registerTxFunc("rb_get", rbGetFn);

/** Direct (non-transactional) invariant check helper. */
int
validateRec(const RbNode* n, uint64_t lo, uint64_t hi, bool* ok)
{
    if (n == nullptr)
        return 1;
    if (n->key < lo || n->key > hi) {
        *ok = false;
        return 1;
    }
    const RbNode* l = n->left.get();
    const RbNode* r = n->right.get();
    if (n->color == kRed) {
        if ((l != nullptr && l->color == kRed) ||
            (r != nullptr && r->color == kRed)) {
            *ok = false;
        }
    }
    int lh = validateRec(l, lo, n->key == 0 ? 0 : n->key - 1, ok);
    int rh = validateRec(r, n->key + 1, hi, ok);
    if (lh != rh)
        *ok = false;
    return lh + (n->color == kBlack ? 1 : 0);
}

/** The one validate body of RbTree and RbMap. */
int
validateTree(nvm::PPtr<PRbTree> t)
{
    const RbNode* r = t->root.get();
    if (r != nullptr && r->color != kBlack)
        return -1;
    bool ok = true;
    int h = validateRec(r, 0, ~0ULL, &ok);
    return ok ? h : -1;
}

}  // namespace

RbTree::RbTree(txn::Engine& eng, uint64_t rootOff) : eng_(eng)
{
    if (rootOff == 0)
        rootOff = rawCreate(eng_, sizeof(PRbTree));
    root_ = nvm::PPtr<PRbTree>(rootOff);
}

void
RbTree::insert(std::string_view key, std::string_view val)
{
    std::lock_guard<sim::SimSharedMutex> g(lock_);
    txn::run(eng_, kRbPut, root_.raw(), keyToU64(key), val);
}

bool
RbTree::lookup(std::string_view key, LookupResult* out)
{
    std::shared_lock<sim::SimSharedMutex> g(lock_);
    txn::run(eng_, kRbGet, root_.raw(), keyToU64(key),
             reinterpret_cast<uint64_t>(out));
    return out->found;
}

bool
RbTree::remove(std::string_view key)
{
    std::lock_guard<sim::SimSharedMutex> g(lock_);
    bool removed = false;
    txn::run(eng_, kRbDel, root_.raw(), keyToU64(key),
             reinterpret_cast<uint64_t>(&removed));
    return removed;
}

nvm::PPtr<PRbTree>
RbMap::create(txn::Tx& tx)
{
    return tx.pnew<PRbTree>();
}

bool
RbMap::put(txn::Tx& tx, uint64_t key, uint64_t value)
{
    // The value lives inline in the val slot's raw bits.
    return rbInsert(tx, root_, key, [&](NP n, bool) {
        tx.st(n->val, nvm::PPtr<uint8_t>(value));
    });
}

bool
RbMap::get(txn::Tx& tx, uint64_t key, uint64_t* value) const
{
    NP n = treeFind(tx, tx.ld(root_->root), key);
    if (n.isNull())
        return false;
    if (value != nullptr)
        *value = tx.ld(n->val).raw();
    return true;
}

bool
RbMap::erase(txn::Tx& tx, uint64_t key)
{
    NP z = rbUnlink(tx, root_, key);
    if (z.isNull())
        return false;
    tx.pfree(z);
    tx.st(root_->count, tx.ld(root_->count) - 1);
    return true;
}

bool
RbMap::floor(txn::Tx& tx, uint64_t key, uint64_t* foundKey,
             uint64_t* value) const
{
    return treeFloor(tx, tx.ld(root_->root), key, foundKey, value,
                     [&](NP n) { return tx.ld(n->val).raw(); });
}

uint64_t
RbMap::size(txn::Tx& tx) const
{
    return tx.ld(root_->count);
}

int
RbMap::validate() const
{
    return validateTree(root_);
}

int
RbTree::validate() const
{
    return validateTree(root_);
}

}  // namespace cnvm::ds
