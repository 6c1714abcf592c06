/**
 * @file
 * Error and status reporting in the gem5 tradition: panic() for
 * simulator bugs, fatal() for user errors, warn()/inform() for
 * everything a user should see without the simulation stopping.
 */

#ifndef SCUSIM_COMMON_LOGGING_HH
#define SCUSIM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace scusim
{

/** Severity levels used by the logging backend. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

/**
 * Low-level log sink. Prints "level: message" to stderr. Fatal exits
 * with status 1; Panic aborts (simulator bug, core dump wanted).
 */
[[noreturn]] void logFatal(const std::string &msg);
[[noreturn]] void logPanic(const std::string &msg);
/**
 * Invariant (sim_check) violation: a checked-build contract broke.
 * Same abort-or-throw behaviour as logPanic but classified as
 * FailureKind::Invariant for runs under an error trap.
 */
[[noreturn]] void logInvariant(const std::string &msg);
void logWarn(const std::string &msg);
void logInform(const std::string &msg);

/** printf-style formatting helper returning a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace scusim

/**
 * Called when the simulation cannot continue because of a user error
 * (bad configuration, invalid arguments). Exits with status 1.
 */
#define fatal(...) ::scusim::logFatal(::scusim::strprintf(__VA_ARGS__))

/**
 * Called when something happened that should never happen regardless
 * of user input, i.e. a simulator bug. Aborts — unless the thread
 * runs under the executor's error trap (common/sim_error.hh), in
 * which case a SimError(FailureKind::Panic) is thrown so one bad run
 * cannot kill a whole experiment matrix.
 */
#define panic(...) ::scusim::logPanic(::scusim::strprintf(__VA_ARGS__))

/** Checked-build invariant violation (see sim/check.hh). */
#define sim_invariant(...)                                              \
    ::scusim::logInvariant(::scusim::strprintf(__VA_ARGS__))

/** Non-fatal warning about questionable but survivable conditions. */
#define warn(...) ::scusim::logWarn(::scusim::strprintf(__VA_ARGS__))

/** Status message with no connotation of incorrect behaviour. */
#define inform(...) ::scusim::logInform(::scusim::strprintf(__VA_ARGS__))

/** Condition check that reports a simulator bug when violated. */
#define panic_if(cond, ...)                                             \
    do {                                                                \
        if (cond)                                                       \
            panic(__VA_ARGS__);                                         \
    } while (0)

/** Condition check that reports a user error when violated. */
#define fatal_if(cond, ...)                                             \
    do {                                                                \
        if (cond)                                                       \
            fatal(__VA_ARGS__);                                         \
    } while (0)

#endif // SCUSIM_COMMON_LOGGING_HH
