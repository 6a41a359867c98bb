#include "txn/recovery_index.h"

namespace cnvm::txn {

const char*
recoveryModeName(RecoveryMode m)
{
    return m == RecoveryMode::lazy ? "lazy" : "full";
}

const char*
slotClassName(SlotClass c)
{
    switch (c) {
        case SlotClass::clean: return "clean";
        case SlotClass::ongoing: return "ongoing";
        case SlotClass::committing: return "committing";
        case SlotClass::idleIntents: return "idle-intents";
        case SlotClass::damaged: return "damaged";
    }
    return "?";
}

}  // namespace cnvm::txn
