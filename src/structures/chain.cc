#include "structures/chain.h"

#include <cstring>

#include "common/error.h"

namespace cnvm::ds {

namespace {

nvm::PPtr<ChainNode>
makeNode(txn::Tx& tx, std::string_view key, std::string_view val,
         nvm::PPtr<ChainNode> next)
{
    auto n = tx.pnew<ChainNode>(key.size() + val.size());
    tx.st(n->next, next);
    tx.st(n->keyLen, static_cast<uint32_t>(key.size()));
    tx.st(n->valLen, static_cast<uint32_t>(val.size()));
    tx.stBytes(n->keyBytes(), key.data(), key.size());
    tx.stBytes(n->valBytes(static_cast<uint32_t>(key.size())),
               val.data(), val.size());
    return n;
}

}  // namespace

bool
chainKeyEquals(txn::Tx& tx, const uint32_t& keyLen, const char* keyBytes,
               std::string_view key)
{
    uint32_t klen = tx.ld(keyLen);
    if (klen != key.size())
        return false;
    char buf[kMaxKeyLen];
    CNVM_CHECK(klen <= kMaxKeyLen, "key too long");
    tx.ldBytes(buf, keyBytes, klen);
    return std::memcmp(buf, key.data(), klen) == 0;
}

bool
chainPut(txn::Tx& tx, nvm::PPtr<ChainNode>& head, std::string_view key,
         std::string_view val)
{
    auto hit = chainFind(tx, head, key);
    if (hit.node.isNull()) {
        tx.st(head, makeNode(tx, key, val, tx.ld(head)));
        return true;
    }
    if (tx.ld(hit.node->valLen) == val.size()) {
        tx.stBytes(hit.node->valBytes(static_cast<uint32_t>(key.size())),
                   val.data(), val.size());
    } else {
        chainSwap(tx, hit, makeNode(tx, key, val, tx.ld(hit.node->next)));
    }
    return false;
}

void
chainGet(txn::Tx& tx, nvm::PPtr<ChainNode>& head, std::string_view key,
         LookupResult* out)
{
    auto hit = chainFind(tx, head, key);
    out->found = !hit.node.isNull();
    if (!out->found)
        return;
    out->len = tx.ld(hit.node->valLen);
    CNVM_CHECK(out->len <= kMaxValLen, "value too long");
    tx.ldBytes(out->value,
               hit.node->valBytes(static_cast<uint32_t>(key.size())),
               out->len);
}

}  // namespace cnvm::ds
