/**
 * @file
 * Persistent singly-linked list — the paper's running example
 * (Figure 2a) as a library structure. New keys are prepended, which
 * makes the head pointer the single clobbered input of an insert.
 * A single global lock serializes operations.
 */
#ifndef CNVM_STRUCTURES_LIST_H
#define CNVM_STRUCTURES_LIST_H

#include "sim/lock.h"
#include "structures/chain.h"

namespace cnvm::ds {

struct PList {
    nvm::PPtr<ChainNode> head;
    uint64_t count;
};

class List : public KvStructure {
 public:
    /** Create a fresh persistent list (its own transaction). */
    List(txn::Engine& eng, uint64_t rootOff = 0);

    const char* name() const override { return "list"; }
    uint64_t rootOff() const override { return root_.raw(); }

    void insert(std::string_view key, std::string_view val) override;
    bool lookup(std::string_view key, LookupResult* out) override;
    bool remove(std::string_view key) override;

    /** Entries currently in the list (direct read). */
    uint64_t size() const { return root_->count; }

 private:
    txn::Engine& eng_;
    nvm::PPtr<PList> root_;
    sim::SimSharedMutex lock_;
};

}  // namespace cnvm::ds

#endif  // CNVM_STRUCTURES_LIST_H
