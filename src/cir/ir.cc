#include "cir/ir.h"

namespace cnvm::cir {

ValueId
emitArg(Function& f, int block, const std::string& name)
{
    Instr i;
    i.op = Op::arg;
    i.name = name;
    return f.append(block, i);
}

ValueId
emitAlloca(Function& f, int block, const std::string& name)
{
    Instr i;
    i.op = Op::alloca_;
    i.name = name;
    return f.append(block, i);
}

ValueId
emitMalloc(Function& f, int block, const std::string& name)
{
    Instr i;
    i.op = Op::malloc_;
    i.name = name;
    return f.append(block, i);
}

ValueId
emitGep(Function& f, int block, ValueId base, int64_t offset,
        const std::string& name)
{
    Instr i;
    i.op = Op::gep;
    i.value = base;
    i.offset = offset;
    i.name = name;
    return f.append(block, i);
}

ValueId
emitLoad(Function& f, int block, ValueId ptr, const std::string& name)
{
    Instr i;
    i.op = Op::load;
    i.ptr = ptr;
    i.name = name;
    return f.append(block, i);
}

void
emitStore(Function& f, int block, ValueId ptr, ValueId value,
          const std::string& name)
{
    Instr i;
    i.op = Op::store;
    i.ptr = ptr;
    i.value = value;
    i.name = name;
    f.append(block, i);
}

ValueId
emitBinop(Function& f, int block, ValueId in, const std::string& name)
{
    Instr i;
    i.op = Op::binop;
    i.value = in;
    i.name = name;
    return f.append(block, i);
}

ValueId
emitCall(Function& f, int block, const std::string& callee,
         Effect effect, std::vector<ValueId> args,
         const std::string& name)
{
    Instr i;
    i.op = Op::call;
    i.callee = callee;
    i.effect = effect;
    i.args = std::move(args);
    i.name = name.empty() ? "call " + callee : name;
    return f.append(block, i);
}

void
emitFlush(Function& f, int block, ValueId ptr, const std::string& name)
{
    Instr i;
    i.op = Op::flush;
    i.ptr = ptr;
    i.name = name;
    f.append(block, i);
}

void
emitFence(Function& f, int block, const std::string& name)
{
    Instr i;
    i.op = Op::fence;
    i.name = name;
    f.append(block, i);
}

void
emitClobberLog(Function& f, int block, ValueId ptr,
               const std::string& name)
{
    Instr i;
    i.op = Op::clobberlog;
    i.ptr = ptr;
    i.name = name;
    f.append(block, i);
}

}  // namespace cnvm::cir
