/**
 * @file
 * Transaction-argument serialization.
 *
 * Clobber-NVM re-executes interrupted transactions, so a transaction's
 * inputs must survive the crash. The paper's v_log records the txfunc's
 * name, its arguments, and any volatile buffers announced with
 * vlog_preserve. Here, txn::run() serializes every argument — including
 * volatile byte buffers, passed as string_view/span — into a blob that
 * the Clobber runtime persists as the v_log entry; the txfunc reads its
 * arguments back out of that blob in both normal execution and recovery
 * re-execution, guaranteeing the two executions see identical inputs.
 *
 * Every transaction serializes its arguments, so ArgWriter keeps them
 * in an inline buffer as large as the biggest blob the v_log can
 * persist (rt::kMaxArgBytes): building one allocates nothing. Only a
 * larger blob, which a persisting runtime refuses anyway, spills to
 * the heap.
 */
#ifndef CNVM_TXN_ARGS_H
#define CNVM_TXN_ARGS_H

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace cnvm::txn {

class ArgWriter {
 public:
    /** Inline capacity; runtimes/base.cc checks it against the
     *  descriptor's kMaxArgBytes. */
    static constexpr size_t kInlineBytes = 3072;

    template <typename T>
    void
    put(const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "transaction args must be trivially copyable");
        append(&v, sizeof(T));
    }

    /** Length-prefixed byte buffer (volatile inputs — vlog_preserve). */
    void
    putBytes(const void* data, size_t len)
    {
        auto len32 = static_cast<uint32_t>(len);
        append(&len32, sizeof(len32));
        if (len > 0)  // an empty view may carry a null pointer
            append(data, len);
    }

    std::span<const uint8_t>
    bytes() const
    {
        if (!spill_.empty())
            return {spill_.data(), spill_.size()};
        return {inline_, size_};
    }

 private:
    void
    append(const void* data, size_t len)
    {
        if (len <= kInlineBytes - size_ && spill_.empty()) [[likely]] {
            std::memcpy(inline_ + size_, data, len);
            size_ += len;
            return;
        }
        if (spill_.empty())
            spill_.assign(inline_, inline_ + size_);
        const auto* p = static_cast<const uint8_t*>(data);
        spill_.insert(spill_.end(), p, p + len);
    }

    size_t size_ = 0;  ///< bytes in inline_ (unused once spilled)
    /** Left uninitialized: only [0, size_) is read, and zeroing 3 KiB
     *  would cost every transaction more than its arguments do. */
    uint8_t inline_[kInlineBytes];
    std::vector<uint8_t> spill_;  ///< the whole blob, past kInlineBytes
};

class ArgReader {
 public:
    explicit ArgReader(std::span<const uint8_t> blob)
        : p_(blob.data()), end_(blob.data() + blob.size()) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        CNVM_CHECK(p_ + sizeof(T) <= end_, "arg blob underflow");
        T out;
        std::memcpy(&out, p_, sizeof(T));
        p_ += sizeof(T);
        return out;
    }

    /**
     * A byte buffer; the returned span points into the blob itself
     * (persistent for Clobber-NVM), so it stays valid for the whole
     * transaction including recovery re-execution.
     */
    std::span<const uint8_t>
    getBytes()
    {
        auto len = get<uint32_t>();
        CNVM_CHECK(p_ + len <= end_, "arg blob underflow");
        std::span<const uint8_t> out{p_, len};
        p_ += len;
        return out;
    }

    std::string_view
    getString()
    {
        auto s = getBytes();
        return {reinterpret_cast<const char*>(s.data()), s.size()};
    }

 private:
    const uint8_t* p_;
    const uint8_t* end_;
};

/** writeArg overload set used by txn::run's pack expansion. */
inline void
writeArg(ArgWriter& w, std::string_view s)
{
    w.putBytes(s.data(), s.size());
}

inline void
writeArg(ArgWriter& w, std::span<const uint8_t> s)
{
    w.putBytes(s.data(), s.size());
}

template <typename T>
void
writeArg(ArgWriter& w, const T& v)
{
    w.put(v);
}

}  // namespace cnvm::txn

#endif  // CNVM_TXN_ARGS_H
