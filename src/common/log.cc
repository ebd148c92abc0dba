#include "common/log.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace amsc
{

std::string
vstrfmt(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n <= 0)
        return std::string();
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace amsc
