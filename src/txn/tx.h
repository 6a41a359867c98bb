/**
 * @file
 * The per-transaction handle passed to txfuncs.
 *
 * All persistent-memory accesses inside a transaction go through this
 * object; it forwards to the active Runtime's interposition callbacks
 * (which the Clobber-NVM compiler would have inserted automatically).
 */
#ifndef CNVM_TXN_TX_H
#define CNVM_TXN_TX_H

#include <cstring>
#include <type_traits>

#include "nvm/pptr.h"
#include "txn/runtime.h"

namespace cnvm::txn {

class Tx {
 public:
    Tx(Runtime& rt, unsigned tid) : rt_(rt), tid_(tid) {}

    Runtime& runtime() { return rt_; }
    unsigned tid() const { return tid_; }
    nvm::Pool& pool() { return rt_.pool(); }

    /** Interposed load of a field. */
    template <typename T>
    T
    ld(const T& src)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T out;
        rt_.load(tid_, &out, &src, sizeof(T));
        return out;
    }

    /** Interposed store of a field. */
    template <typename T>
    void
    st(T& dst, const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        rt_.store(tid_, &dst, &v, sizeof(T));
    }

    void
    ldBytes(void* dst, const void* src, size_t n)
    {
        rt_.load(tid_, dst, src, n);
    }

    void
    stBytes(void* dst, const void* src, size_t n)
    {
        rt_.store(tid_, dst, src, n);
    }

    /** pmalloc: allocate `n` payload bytes. @return pool offset. */
    uint64_t
    pmallocOff(size_t n)
    {
        return rt_.alloc(tid_, n);
    }

    /** Allocate and zero a T (plus `extra` trailing bytes). */
    template <typename T>
    nvm::PPtr<T>
    pnew(size_t extra = 0)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        size_t n = sizeof(T) + extra;
        uint64_t off = rt_.alloc(tid_, n);
        // Fresh memory is not a transaction input: the runtimes treat
        // this zeroing as allocator initialization, not a logged store.
        rt_.initZero(tid_, pool().at(off), n);
        return nvm::PPtr<T>(off);
    }

    /** Transactional free (applied at commit). */
    void
    pfree(uint64_t payloadOff)
    {
        rt_.dealloc(tid_, payloadOff);
    }

    template <typename T>
    void
    pfree(nvm::PPtr<T> p)
    {
        rt_.dealloc(tid_, p.raw());
    }

    /** True during recovery re-execution: volatile out-pointer args
     *  are dangling and must not be written (see Runtime::recovering). */
    bool recovering() const { return rt_.recovering(); }

 private:
    Runtime& rt_;
    unsigned tid_;
};

}  // namespace cnvm::txn

#endif  // CNVM_TXN_TX_H
