/**
 * @file
 * cir: a small SSA-style intermediate representation standing in for
 * LLVM IR (paper Section 4.4).
 *
 * Clobber-NVM's compiler contribution is three LLVM passes; the
 * central one identifies clobber writes with alias + dominator
 * analysis and then removes false candidates ("unexposed" and
 * "shadowed", Figures 4 and 5). The algorithms — not LLVM plumbing —
 * are the contribution, so this module reimplements them over a
 * minimal IR with exactly the features the analysis consumes:
 *
 *  - a function is a graph of basic blocks;
 *  - instructions produce SSA values; loads/stores reference pointer
 *    values; pointers arise from arguments, allocas, mallocs, and
 *    field offsets (GEP);
 *  - alias queries between two memory accesses answer no / may /
 *    must, derived from the pointer value chains.
 */
#ifndef CNVM_CIR_IR_H
#define CNVM_CIR_IR_H

#include <cstdint>
#include <string>
#include <vector>

namespace cnvm::cir {

using ValueId = int;
constexpr ValueId kNoValue = -1;

/**
 * Declared effect class of a call target. For callees defined in the
 * same module the interprocedural summaries (cir/summaries.h) refine
 * this from the body; for external (unresolved) callees the declared
 * class is all the analysis knows, so it must be conservative.
 */
enum class Effect {
    pure,           ///< no memory effects, deterministic
    readsNVM,       ///< may read NVM through its pointer arguments
    writesNVM,      ///< may read and write NVM through its arguments
    volatileWrite,  ///< writes observable volatile state (globals)
    nondet,         ///< result depends on hidden state (time, rand)
    io,             ///< externally observable side effect (I/O)
};

enum class Op {
    arg,       ///< function argument (pointer or scalar)
    alloca_,   ///< stack allocation (fresh storage)
    malloc_,   ///< heap allocation (fresh storage)
    gep,       ///< pointer + field offset (operand0 = base pointer)
    load,      ///< read *operand0
    store,     ///< write operand1 to *operand0
    binop,     ///< scalar arithmetic over operands
    call,      ///< call of `callee` with `args`; effects per summary
    br,        ///< unconditional branch (succ0)
    condbr,    ///< conditional branch (succ0 / succ1)
    ret,
    /**
     * @name Persistence intrinsics
     * The instructions the Clobber-NVM compiler *inserts*: clwb of the
     * line holding *operand0, sfence, and the clobber_log callback
     * logging the old value at *operand0. The clobber pass never
     * consumes them; the persistency checker (src/analysis) audits
     * them against the stores.
     */
    /// @{
    flush,       ///< clwb of the line containing *operand0
    fence,       ///< sfence (orders all prior flushes)
    clobberlog,  ///< clobber_log(*operand0) instrumentation call
    /// @}
};

struct Instr {
    Op op = Op::binop;
    ValueId result = kNoValue;   ///< SSA value defined (if any)
    ValueId ptr = kNoValue;      ///< load/store address operand
    ValueId value = kNoValue;    ///< store data / gep base / binop in
    int64_t offset = 0;          ///< gep: field offset; -1 = unknown
    std::string name;            ///< debugging label
    std::string callee;          ///< call: target symbol
    Effect effect = Effect::pure;  ///< call: declared effect class
    std::vector<ValueId> args;   ///< call: actual arguments
};

struct Block {
    std::string label;
    std::vector<Instr> instrs;
    std::vector<int> succs;
};

/** Location of an instruction inside a function. */
struct InstrRef {
    int block = -1;
    int index = -1;

    bool
    operator==(const InstrRef& o) const
    {
        return block == o.block && index == o.index;
    }
};

class Function {
 public:
    explicit Function(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    int
    addBlock(std::string label)
    {
        blocks_.push_back(Block{std::move(label), {}, {}});
        return static_cast<int>(blocks_.size()) - 1;
    }

    void
    addEdge(int from, int to)
    {
        blocks_[from].succs.push_back(to);
    }

    /** Append an instruction; returns its defined value id (if any). */
    ValueId
    append(int block, Instr instr)
    {
        if (instr.op == Op::arg || instr.op == Op::alloca_ ||
            instr.op == Op::malloc_ || instr.op == Op::gep ||
            instr.op == Op::load || instr.op == Op::binop ||
            instr.op == Op::call) {
            instr.result = nextValue_++;
        }
        blocks_[block].instrs.push_back(instr);
        return blocks_[block].instrs.back().result;
    }

    const std::vector<Block>& blocks() const { return blocks_; }
    int numValues() const { return nextValue_; }

    const Instr&
    at(const InstrRef& r) const
    {
        return blocks_[r.block].instrs[r.index];
    }

    /** All instructions matching a predicate, in program order. */
    template <typename Pred>
    std::vector<InstrRef>
    collect(Pred&& pred) const
    {
        std::vector<InstrRef> out;
        for (int b = 0; b < static_cast<int>(blocks_.size()); b++) {
            for (int i = 0;
                 i < static_cast<int>(blocks_[b].instrs.size()); i++) {
                if (pred(blocks_[b].instrs[i]))
                    out.push_back({b, i});
            }
        }
        return out;
    }

 private:
    std::string name_;
    std::vector<Block> blocks_;
    ValueId nextValue_ = 0;
};

/** Convenience builders for the common instruction forms. */
ValueId emitArg(Function& f, int block, const std::string& name);
ValueId emitAlloca(Function& f, int block, const std::string& name);
ValueId emitMalloc(Function& f, int block, const std::string& name);
ValueId emitGep(Function& f, int block, ValueId base, int64_t offset,
                const std::string& name = "");
ValueId emitLoad(Function& f, int block, ValueId ptr,
                 const std::string& name = "");
void emitStore(Function& f, int block, ValueId ptr, ValueId value,
               const std::string& name = "");
ValueId emitBinop(Function& f, int block, ValueId in,
                  const std::string& name = "");
ValueId emitCall(Function& f, int block, const std::string& callee,
                 Effect effect, std::vector<ValueId> args,
                 const std::string& name = "");
void emitFlush(Function& f, int block, ValueId ptr,
               const std::string& name = "");
void emitFence(Function& f, int block, const std::string& name = "");
void emitClobberLog(Function& f, int block, ValueId ptr,
                    const std::string& name = "");

}  // namespace cnvm::cir

#endif  // CNVM_CIR_IR_H
