#include "common/sim_error.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace scusim
{

namespace
{

thread_local bool trapActive = false;

std::mutex &
errMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

const char *
to_string(FailureKind k)
{
    switch (k) {
      case FailureKind::Panic:
        return "panic";
      case FailureKind::Invariant:
        return "invariant";
      case FailureKind::Deadlock:
        return "deadlock";
      case FailureKind::Runaway:
        return "runaway";
    }
    return "?";
}

SimError::SimError(FailureKind kind, const std::string &msg,
                   std::string diagnostics)
    : std::runtime_error(msg), failKind(kind),
      diag(std::move(diagnostics))
{
}

bool
errorTrapActive()
{
    return trapActive;
}

ErrorTrapGuard::ErrorTrapGuard() : previous(trapActive)
{
    trapActive = true;
}

ErrorTrapGuard::~ErrorTrapGuard()
{
    trapActive = previous;
}

void
reportFailure(FailureKind kind, const std::string &msg,
              std::string diagnostics)
{
    if (trapActive)
        throw SimError(kind, msg, std::move(diagnostics));
    {
        std::lock_guard<std::mutex> lock(errMutex());
        // This IS the failure reporting backend.
        // simlint: allow(direct-output)
        std::fprintf(stderr, "%s: %s\n", to_string(kind),
                     msg.c_str());
        if (!diagnostics.empty()) // simlint: allow(direct-output)
            std::fprintf(stderr, "%s\n", diagnostics.c_str());
    }
    std::abort();
}

} // namespace scusim
