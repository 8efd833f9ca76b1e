/**
 * @file
 * Error helpers in the gem5 tradition: panic() for internal
 * invariant violations (simulator bugs), fatal() for conditions caused
 * by bad user input or configuration.
 */

#ifndef NCORE_COMMON_LOGGING_H
#define NCORE_COMMON_LOGGING_H

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace ncore {

namespace detail {
[[noreturn]] void diePrintf(const char *kind, const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));
} // namespace detail

/**
 * Abort on an internal invariant violation (a bug in this codebase).
 * Mirrors gem5's panic(): should never fire regardless of user input.
 */
#define panic(...) \
    ::ncore::detail::diePrintf("panic", __FILE__, __LINE__, __VA_ARGS__)

/**
 * Exit on a condition caused by the user (bad configuration, bad model,
 * unsupported request). Mirrors gem5's fatal().
 */
#define fatal(...) \
    ::ncore::detail::diePrintf("fatal", __FILE__, __LINE__, __VA_ARGS__)

/** panic() when the condition is false. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            panic(__VA_ARGS__);                                           \
    } while (0)

/** fatal() when the condition is true. */
#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            fatal(__VA_ARGS__);                                           \
    } while (0)

} // namespace ncore

#endif // NCORE_COMMON_LOGGING_H
