#include "runtimes/factory.h"

#include "common/error.h"
#include "runtimes/atlas.h"
#include "runtimes/ido.h"
#include "runtimes/nolog.h"
#include "runtimes/redo.h"
#include "runtimes/undo.h"

namespace cnvm::rt {

std::unique_ptr<txn::Runtime>
makeRuntime(txn::RuntimeKind kind, nvm::Pool& pool,
            alloc::PmAllocator& heap, ClobberPolicy policy)
{
    switch (kind) {
      case txn::RuntimeKind::noLog:
        return std::make_unique<NoLogRuntime>(pool, heap);
      case txn::RuntimeKind::undo:
        return std::make_unique<UndoRuntime>(pool, heap);
      case txn::RuntimeKind::redo:
        return std::make_unique<RedoRuntime>(pool, heap);
      case txn::RuntimeKind::clobber:
        return std::make_unique<ClobberRuntime>(pool, heap, policy);
      case txn::RuntimeKind::atlas:
        return std::make_unique<AtlasRuntime>(pool, heap);
      case txn::RuntimeKind::ido:
        return std::make_unique<IdoRuntime>(pool, heap);
    }
    panic("unknown runtime kind");
}

txn::RuntimeKind
kindFromName(const std::string& name)
{
    if (name == "nolog")
        return txn::RuntimeKind::noLog;
    if (name == "pmdk" || name == "undo")
        return txn::RuntimeKind::undo;
    if (name == "mnemosyne" || name == "redo")
        return txn::RuntimeKind::redo;
    if (name == "clobber")
        return txn::RuntimeKind::clobber;
    if (name == "atlas")
        return txn::RuntimeKind::atlas;
    if (name == "ido")
        return txn::RuntimeKind::ido;
    fatal("unknown runtime name: " + name);
}

const char*
kindName(txn::RuntimeKind kind)
{
    switch (kind) {
      case txn::RuntimeKind::noLog: return "nolog";
      case txn::RuntimeKind::undo: return "pmdk";
      case txn::RuntimeKind::redo: return "mnemosyne";
      case txn::RuntimeKind::clobber: return "clobber";
      case txn::RuntimeKind::atlas: return "atlas";
      case txn::RuntimeKind::ido: return "ido";
    }
    return "?";
}

}  // namespace cnvm::rt
