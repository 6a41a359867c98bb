/**
 * @file
 * Runtime factory: construct any of the comparison systems by kind.
 */
#ifndef CNVM_RUNTIMES_FACTORY_H
#define CNVM_RUNTIMES_FACTORY_H

#include <memory>
#include <string>

#include "runtimes/clobber.h"
#include "txn/runtime.h"

namespace cnvm::rt {

/** Construct a runtime of the given kind over pool + heap. */
std::unique_ptr<txn::Runtime>
makeRuntime(txn::RuntimeKind kind, nvm::Pool& pool,
            alloc::PmAllocator& heap,
            ClobberPolicy policy = ClobberPolicy::refined);

/** Parse "clobber" / "pmdk" / "mnemosyne" / "atlas" / "nolog" / "ido". */
txn::RuntimeKind kindFromName(const std::string& name);

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_FACTORY_H
