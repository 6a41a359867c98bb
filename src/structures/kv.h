/**
 * @file
 * Common interface for the persistent key-value data structures used by
 * the paper's benchmarks (Section 5.2): B+Tree, HashMap, Skiplist and
 * Red-Black Tree, plus the linked list from the usage example.
 *
 * All structures are written once against the txn::Runtime
 * interposition API, so every logging protocol runs the identical data
 * structure code — only the runtime changes between bars of Figure 6.
 *
 * Locking (paper Section 5.2): HashMap uses one reader-writer lock per
 * shard (256 instances), Skiplist a single global lock, RB-Tree a
 * global reader-writer lock, and B+Tree fine-grained (key-sharded)
 * reader-writer locks. Locks are volatile (sim::SimSharedMutex — real
 * under OS threads, discrete-event under the logical executor) and are
 * acquired by the wrapper *around* the transaction, per conservative
 * strong strict two-phase locking. Transaction bodies never touch
 * locks, which keeps recovery re-execution lock-free.
 */
#ifndef CNVM_STRUCTURES_KV_H
#define CNVM_STRUCTURES_KV_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "txn/engine.h"
#include "txn/tx.h"

namespace cnvm::ds {

constexpr size_t kMaxKeyLen = 64;
constexpr size_t kMaxValLen = 1024;

/**
 * The heap's span of pool offsets. Every allocation starts 16-byte
 * aligned (the allocator's granule) inside it, so a link or a buffer
 * pointer that a crash tore is caught here, through CNVM_CHECK, before
 * it is dereferenced.
 */
class HeapRange {
 public:
    explicit HeapRange(const nvm::Pool& pool)
        : lo_(pool.heapOff()), end_(lo_ + pool.heapSize()) {}

    uint64_t size() const { return end_ - lo_; }

    /** Fail unless [off, off + len) is an aligned range in the heap. */
    void
    check(uint64_t off, uint64_t len, const char* what) const
    {
        CNVM_CHECK(off % 16 == 0 && off >= lo_ && off <= end_ &&
                       len <= end_ - off,
                   what);
    }

 private:
    uint64_t lo_;
    uint64_t end_;
};

/**
 * Bounds one walk along a structure's links. The heap has room for at
 * most heapSize / nodeBytes nodes, so a longer walk revisits a node:
 * the structure has a cycle, which only a broken persistence order
 * leaves behind. Failing through CNVM_CHECK lets the torture oracle
 * report the case with its replay line instead of spinning forever.
 */
class WalkBound {
 public:
    WalkBound(txn::Tx& tx, size_t nodeBytes)
        : heap_(tx.pool()), nodeBytes_(nodeBytes),
          left_(heap_.size() / nodeBytes) {}

    void
    step()
    {
        CNVM_CHECK(left_-- > 0, "walk outgrew the heap: a link cycle");
    }

    /** step() onto the node a link names, checked to lie in the heap
     *  before it is read. */
    void
    step(uint64_t nodeOff)
    {
        heap_.check(nodeOff, nodeBytes_, "torn link: not a heap node");
        step();
    }

 private:
    HeapRange heap_;
    size_t nodeBytes_;
    uint64_t left_;
};

/**
 * @name Tree search
 * The binary-search-tree walks of ds::RbTree, ds::RbMap and ds::AvlMap,
 * over any Node with a uint64_t `key` and `left` and `right` links.
 * Every load goes through `tx`, and WalkBound stops a cyclic walk.
 */
/// @{

/** No valid tree here comes near this many levels, so a recursive walk
 *  that gets this deep is going round a link cycle. */
constexpr int kMaxTreeDepth = 128;

/** The node holding `key` in the tree at `root`, or null. */
template <typename Node>
nvm::PPtr<Node>
treeFind(txn::Tx& tx, nvm::PPtr<Node> root, uint64_t key)
{
    WalkBound walk(tx, sizeof(Node));
    for (auto cur = root; !cur.isNull();) {
        walk.step();
        uint64_t k = tx.ld(cur->key);
        if (key == k)
            return cur;
        cur = key < k ? tx.ld(cur->left) : tx.ld(cur->right);
    }
    return {};
}

/**
 * The greatest key <= `key` in the tree at `root`. Every candidate the
 * walk passes sets *foundKey and loads *value through `loadValue(node)`
 * (a load marks its block read), not only the answer.
 * @return whether some key <= `key` exists.
 */
template <typename Node, typename LoadValue>
bool
treeFloor(txn::Tx& tx, nvm::PPtr<Node> root, uint64_t key,
          uint64_t* foundKey, uint64_t* value, LoadValue loadValue)
{
    WalkBound walk(tx, sizeof(Node));
    bool found = false;
    for (auto cur = root; !cur.isNull();) {
        walk.step();
        uint64_t k = tx.ld(cur->key);
        if (k > key) {
            cur = tx.ld(cur->left);
            continue;
        }
        found = true;
        if (foundKey != nullptr)
            *foundKey = k;
        if (value != nullptr)
            *value = loadValue(cur);
        if (k == key)
            break;
        cur = tx.ld(cur->right);
    }
    return found;
}

/// @}

/** Volatile out-parameter for lookups (read-only transactions are
 *  never re-executed, so passing its address is safe). */
struct LookupResult {
    bool found = false;
    uint32_t len = 0;
    char value[kMaxValLen];

    std::string
    str() const
    {
        return {value, len};
    }
};

class KvStructure {
 public:
    virtual ~KvStructure() = default;

    virtual const char* name() const = 0;

    /** Pool offset of the persistent root (reattach after restart). */
    virtual uint64_t rootOff() const = 0;

    /** Insert or replace. */
    virtual void insert(std::string_view key, std::string_view val) = 0;

    /** @return true and fill `out` if present. */
    virtual bool lookup(std::string_view key, LookupResult* out) = 0;

    /** @return true if the key was present and is now gone. */
    virtual bool remove(std::string_view key) = 0;

    /**
     * Structure-specific invariant audit by direct traversal (tree
     * ordering/balance), used by the crash-torture oracle.
     * @return false on violation; default: nothing extra to check.
     */
    virtual bool selfCheck() const { return true; }
};

struct KvConfig {
    size_t hashShards = 256;          ///< paper: 256 hashmap instances
    size_t hashBucketsPerShard = 1024;
    size_t lockShards = 1024;         ///< B+Tree fine-grained locks
};

/**
 * Construct a structure by benchmark name: "hashmap", "skiplist",
 * "rbtree", "bptree", or "list".
 * @param rootOff 0 to create a fresh structure, otherwise reattach.
 */
std::unique_ptr<KvStructure>
makeKv(const std::string& name, txn::Engine& eng, uint64_t rootOff = 0,
       const KvConfig& cfg = KvConfig{});

/** The four structures of Figure 6, in plot order. */
const std::vector<std::string>& benchmarkStructures();

/** Big-endian read of the first 8 key bytes (preserves lex order). */
uint64_t keyToU64(std::string_view key);

/** Allocate + zero + commit `bytes` outside any transaction (setup). */
uint64_t rawCreate(txn::Engine& eng, size_t bytes);

/** A fresh heap buffer holding `val`, allocated and written in `tx`:
 *  the value buffer of an RbTree node or a B+Tree leaf slot. */
nvm::PPtr<uint8_t> makeValue(txn::Tx& tx, std::string_view val);

/** Load the `len`-byte value buffer at `buf` into `out` in `tx`. A torn
 *  length or buffer pointer fails through CNVM_CHECK: `len` is at most
 *  kMaxValLen and the buffer lies in the heap (see HeapRange). */
void loadValue(txn::Tx& tx, nvm::PPtr<uint8_t> buf, uint32_t len,
               char* out);

}  // namespace cnvm::ds

#endif  // CNVM_STRUCTURES_KV_H
