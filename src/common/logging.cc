#include "logging.h"

#include <cstdarg>

namespace ncore {

namespace detail {

void
diePrintf(const char *kind, const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "%s: %s:%d: ", kind, file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    std::abort();
}

} // namespace detail
} // namespace ncore
