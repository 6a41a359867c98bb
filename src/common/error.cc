#include "common/error.h"

#include <cstdio>

namespace cnvm {

std::string
strprintf(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

void
fatal(const std::string& msg)
{
    throw FatalError(msg);
}

void
panic(const std::string& msg)
{
    throw PanicError(msg);
}

void
checkFailed(const char* file, int line, const char* cond,
            const char* msg)
{
    throw PanicError(strprintf("%s:%d", file, line),
                     strprintf("check failed: %s (%s)", cond, msg));
}

}  // namespace cnvm
