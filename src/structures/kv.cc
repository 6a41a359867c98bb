#include "structures/kv.h"

#include "alloc/pm_allocator.h"
#include "common/error.h"
#include "structures/bptree.h"
#include "structures/hashmap.h"
#include "structures/list.h"
#include "structures/rbtree.h"
#include "structures/skiplist.h"

namespace cnvm::ds {

uint64_t
keyToU64(std::string_view key)
{
    uint64_t v = 0;
    for (size_t i = 0; i < 8; i++) {
        v <<= 8;
        if (i < key.size())
            v |= static_cast<unsigned char>(key[i]);
    }
    return v;
}

uint64_t
rawCreate(txn::Engine& eng, size_t bytes)
{
    // Structure roots are created non-transactionally at setup time
    // (like PMDK pool layout creation): reserve, zero, commit the
    // allocation, fence.
    auto& heap = eng.rt.heap();
    auto& pool = eng.rt.pool();
    uint64_t off = heap.reserve(bytes);
    std::vector<uint8_t> zeros(4096, 0);
    for (size_t i = 0; i < bytes; i += zeros.size()) {
        size_t n = std::min(zeros.size(), bytes - i);
        pool.writeAt(off + i, zeros.data(), n);
        pool.flush(pool.at(off + i), n);
    }
    heap.persistAllocate(off);
    pool.fence();
    return off;
}

nvm::PPtr<uint8_t>
makeValue(txn::Tx& tx, std::string_view val)
{
    auto buf = nvm::PPtr<uint8_t>(tx.pmallocOff(val.size()));
    tx.stBytes(buf.get(), val.data(), val.size());
    return buf;
}

void
loadValue(txn::Tx& tx, nvm::PPtr<uint8_t> buf, uint32_t len, char* out)
{
    CNVM_CHECK(len <= kMaxValLen, "value too long");
    if (len == 0)
        return;  // nothing is read, so no buffer is needed
    HeapRange(tx.pool()).check(buf.raw(), len,
                               "torn value buffer: not a heap range");
    tx.ldBytes(out, buf.get(), len);
}

const std::vector<std::string>&
benchmarkStructures()
{
    static const std::vector<std::string> names{
        "bptree", "hashmap", "rbtree", "skiplist"};
    return names;
}

std::unique_ptr<KvStructure>
makeKv(const std::string& name, txn::Engine& eng, uint64_t rootOff,
       const KvConfig& cfg)
{
    if (name == "list")
        return std::make_unique<List>(eng, rootOff);
    if (name == "hashmap")
        return std::make_unique<HashMap>(eng, rootOff, cfg);
    if (name == "skiplist")
        return std::make_unique<Skiplist>(eng, rootOff);
    if (name == "rbtree")
        return std::make_unique<RbTree>(eng, rootOff);
    if (name == "bptree")
        return std::make_unique<BpTree>(eng, rootOff, cfg);
    fatal("unknown structure: " + name);
}

}  // namespace cnvm::ds
