/**
 * @file
 * Error-reporting helpers shared by every Clobber-NVM module.
 *
 * Follows the gem5 panic/fatal split: panic() flags an internal invariant
 * violation (a library bug), fatal() flags a condition caused by the caller
 * or the environment (bad configuration, unusable pool file, ...).
 */
#ifndef CNVM_COMMON_ERROR_H
#define CNVM_COMMON_ERROR_H

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace cnvm {

/** Exception thrown for user/environment errors (fatal()). */
class FatalError : public std::runtime_error {
 public:
    explicit FatalError(const std::string& what)
        : std::runtime_error(what) {}
};

/** Exception thrown for internal invariant violations (panic()). */
class PanicError : public std::logic_error {
 public:
    explicit PanicError(const std::string& what)
        : std::logic_error(what) {}

    /** A failed check at `where`: what() reads "<where>: <detail>". */
    PanicError(const std::string& where, const std::string& detail)
        : std::logic_error(where + ": " + detail),
          detailAt_(where.size() + 2) {}

    /**
     * what() without the source location a CNVM_CHECK puts in front:
     * the same text whichever directory the code was built from.
     */
    const char* detail() const noexcept { return what() + detailAt_; }

 private:
    size_t detailAt_ = 0;
};

/** printf-style formatting into a std::string. */
std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user/environment error. Throws FatalError. */
[[noreturn]] void fatal(const std::string& msg);

/** Report an internal bug. Throws PanicError. */
[[noreturn]] void panic(const std::string& msg);

/**
 * Report a failed CNVM_CHECK of `cond` at `file`:`line`. Throws a
 * PanicError whose what() is "<file>:<line>: check failed: <cond>
 * (<msg>)" and whose detail() drops the location. Out of line and
 * cold, so a check costs its call site one compare and one call.
 */
[[noreturn, gnu::cold]] void checkFailed(const char* file, int line,
                                         const char* cond,
                                         const char* msg);

}  // namespace cnvm

/** Assert an internal invariant; cheap enough to keep in release builds. */
#define CNVM_CHECK(cond, msg)                                           \
    do {                                                                \
        if (!(cond))                                                    \
            ::cnvm::checkFailed(__FILE__, __LINE__, #cond, (msg));      \
    } while (0)

#endif  // CNVM_COMMON_ERROR_H
