/**
 * @file
 * No-log baseline: writes go straight to NVM with no logging and no
 * commit-time ordering. Not failure-atomic — it is the "No-log"
 * baseline of Figures 7, 11 and 12.
 */
#ifndef CNVM_RUNTIMES_NOLOG_H
#define CNVM_RUNTIMES_NOLOG_H

#include "runtimes/base.h"

namespace cnvm::rt {

class NoLogRuntime : public RuntimeBase {
 public:
    using RuntimeBase::RuntimeBase;

    const char* name() const override { return "nolog"; }
    txn::RuntimeKind kind() const override
    {
        return txn::RuntimeKind::noLog;
    }

    void txBegin(unsigned tid, txn::FuncId fid,
                 std::span<const uint8_t> args) override;
    void txCommit(unsigned tid) override;
    void store(unsigned tid, void* dst, const void* src,
               size_t n) override;
    uint64_t alloc(unsigned tid, size_t n) override;
    void dealloc(unsigned tid, uint64_t payloadOff) override;

    /**
     * There is nothing per-slot to heal (or any way to), so triage
     * emits no entries — only the heap's rebuild remains. The
     * generic triage would classify descriptor media damage as
     * healable, which no-log deliberately never claims.
     */
    txn::RecoveryIndex recoveryTriage() override;
};

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_NOLOG_H
