/**
 * @file
 * Typed failure taxonomy for simulation runs. In the
 * gem5 tradition a panic() aborts the process; under the parallel
 * executor that kills a whole experiment matrix for one bad cell.
 * The executor therefore installs a thread-local *error trap* around
 * each run: while it is active, panic/invariant/watchdog failures
 * are thrown as SimError (carrying a FailureKind and a per-component
 * diagnostic dump) instead of aborting, so the matrix records the
 * failure and keeps going. Standalone tools and death tests see the
 * classic abort behaviour unchanged.
 */

#ifndef SCUSIM_COMMON_SIM_ERROR_HH
#define SCUSIM_COMMON_SIM_ERROR_HH

#include <stdexcept>
#include <string>

namespace scusim
{

/** Classification of a failed simulation run. */
enum class FailureKind
{
    Panic,     ///< simulator bug (panic() fired)
    Invariant, ///< checked-build contract violation (sim_check)
    Deadlock,  ///< components busy but making no progress
    Runaway,   ///< tick budget exceeded without draining
};

/** Lowercase name: "panic", "invariant", "deadlock", ... */
const char *to_string(FailureKind k);

/**
 * A classified simulation failure. what() is the original message;
 * diagnostics() optionally carries the per-component dump taken at
 * the point of failure (watchdog failures always attach one).
 */
class SimError : public std::runtime_error
{
  public:
    SimError(FailureKind kind, const std::string &msg,
             std::string diagnostics = "");

    FailureKind kind() const { return failKind; }
    const std::string &diagnostics() const { return diag; }

  private:
    FailureKind failKind;
    std::string diag;
};

/** Whether the calling thread runs under an error trap. */
bool errorTrapActive();

/**
 * RAII error trap: while alive on this thread, reportFailure() (and
 * through it panic()/sim_check) throws SimError instead of aborting.
 * Nests safely; the executor installs one per run.
 */
class ErrorTrapGuard
{
  public:
    ErrorTrapGuard();
    ~ErrorTrapGuard();
    ErrorTrapGuard(const ErrorTrapGuard &) = delete;
    ErrorTrapGuard &operator=(const ErrorTrapGuard &) = delete;

  private:
    bool previous;
};

/**
 * Report a classified failure: throws SimError when the thread's
 * error trap is active, otherwise prints "<kind>: <msg>" (plus the
 * diagnostics, if any) to stderr and aborts.
 */
[[noreturn]] void reportFailure(FailureKind kind,
                                const std::string &msg,
                                std::string diagnostics = "");

} // namespace scusim

#endif // SCUSIM_COMMON_SIM_ERROR_HH
