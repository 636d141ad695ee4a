#include "common/logging.h"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace deepstore {

namespace {

// lint:allow(D8: process-wide log threshold, set once at startup and read-only while the simulation runs)
LogLevel gLogLevel = LogLevel::Warn;

} // namespace

void
setLogLevel(LogLevel level)
{
    gLogLevel = level;
}

LogLevel
logLevel()
{
    return gLogLevel;
}

namespace detail {

std::string
vformat(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
emit(const char *prefix, const std::string &msg)
{
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

} // namespace detail

} // namespace deepstore
