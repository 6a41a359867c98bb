#include "txn/recovery_index.h"

namespace cnvm::txn {

const char*
recoveryModeName(RecoveryMode m)
{
    return m == RecoveryMode::lazy ? "lazy" : "full";
}

}  // namespace cnvm::txn
