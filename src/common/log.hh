/**
 * @file
 * Logging and error-reporting helpers in the gem5 tradition.
 *
 * panic()  -- simulator bug; something that should never happen did.
 *             Aborts so a debugger / core dump can inspect the state.
 * warn()   -- questionable but continuable condition.
 *
 * Every other failure -- a bad configuration, a corrupt input, a
 * failed write -- throws a SimError (common/error.hh), so it fails
 * one sweep point rather than the process.
 *
 * All message functions accept printf-style format strings.
 */

#ifndef AMSC_COMMON_LOG_HH
#define AMSC_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace amsc
{

/**
 * Report an internal simulator error and abort.
 *
 * Use for conditions that indicate a bug in the simulator itself,
 * regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a continuable, suspicious condition to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list ap);

} // namespace amsc

#endif // AMSC_COMMON_LOG_HH
