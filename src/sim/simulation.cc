#include "sim/simulation.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/sim_error.hh"
#include "stats/timeseries.hh"
#include "trace/trace.hh"

namespace scusim::sim
{

Simulation::Simulation() = default;
Simulation::~Simulation() = default;

void
Simulation::addClocked(Clocked *c, std::string name)
{
    panic_if(c->schedOwner && c->schedOwner != this,
             "Clocked object registered with two Simulations");
    c->schedOwner = this;
    c->schedIndex = clockedList.size();
    if (name.empty())
        name = "clocked#" + std::to_string(clockedList.size());
    clockedList.push_back(c);
    clockedNames.push_back(std::move(name));
    armed.push_back(tickNever);
}

void
Clocked::notifyWake()
{
    if (schedOwner)
        schedOwner->wakeComponent(schedIndex);
}

void
Simulation::installTraceSink(std::unique_ptr<trace::TraceSink> sink)
{
    tracer = std::move(sink);
    simChan = tracer ? tracer->channel("sim") : nullptr;
}

void
Simulation::addTimeseries(stats::Timeseries *ts)
{
    if (ts)
        timeseries.push_back(ts);
}

void
Simulation::sampleTimeseries(Tick now)
{
    for (stats::Timeseries *ts : timeseries)
        ts->sampleUpTo(now);
}

std::string
Simulation::diagnosticDump() const
{
    std::ostringstream os;
    os << "tick " << currentTick << "\n";
    for (std::size_t i = 0; i < clockedList.size(); ++i) {
        const Clocked *c = clockedList[i];
        os << clockedNames[i] << ": busy="
           << (c->busy(currentTick) ? "yes" : "no");
        Tick wake = c->nextWakeTick();
        os << " wake=";
        if (wake == tickNever)
            os << "never";
        else
            os << wake;
        os << " progress=" << c->progressCount() << "\n";
    }
    os << "events: pending=" << eq.size() << " next=";
    if (eq.nextTick() == tickNever)
        os << "never";
    else
        os << eq.nextTick();
    os << " serviced=" << eq.serviced();
    // On a hang the most recent trace events are the closest thing to
    // a flight recorder — attach the tail of every ring buffer.
    if (tracer)
        os << "\n" << tracer->tailDump();
    return os.str();
}

void
Simulation::wakeComponent(std::size_t idx)
{
    const Clocked *c = clockedList[idx];
    armed[idx] = c->busy(currentTick) ? currentTick : c->nextWakeTick();
}

void
Simulation::rearmAll()
{
    for (std::size_t i = 0; i < clockedList.size(); ++i)
        wakeComponent(i);
}

Tick
Simulation::nextInterestingTick()
{
    // The earliest armed component or event, whichever comes first.
    // A component armed at or before "now" is busy now.
    Tick t = eq.nextTick();
    for (const Tick wake : armed) {
        if (wake <= currentTick)
            return currentTick;
        t = std::min(t, wake);
    }
    return t;
}

std::uint64_t
Simulation::progressStamp() const
{
    std::uint64_t stamp = eq.serviced();
    for (const auto *c : clockedList)
        stamp += c->progressCount();
    return stamp;
}

void
Simulation::stepOnce()
{
    eq.serviceUpTo(currentTick);
    // Collect every component due at or before now (consuming its
    // wake) before servicing any — a wake armed while the due set is
    // serviced is picked up on the next tick. Then service them in
    // registration order, which matters because components share the
    // analytic memory system within a tick.
    readyScratch.clear();
    for (std::size_t idx = 0; idx < armed.size(); ++idx) {
        if (armed[idx] <= currentTick) {
            armed[idx] = tickNever;
            readyScratch.push_back(idx);
        }
    }
    for (std::size_t idx : readyScratch) {
        Clocked *c = clockedList[idx];
        if (c->busy(currentTick)) {
            c->noteTick(currentTick);
            c->tick(currentTick);
        }
        armed[idx] = c->busy(currentTick + 1) ? currentTick + 1
                                              : c->nextWakeTick();
    }
    ++currentTick;
}

void
Simulation::step(Tick n)
{
    rearmAll();
    const Tick end = currentTick + n;
    // Jump across ticks where nothing is due; stepOnce() on such a
    // tick would service nothing.
    while (true) {
        const Tick next = std::max(currentTick, nextInterestingTick());
        if (next >= end)
            break;
        currentTick = next;
        stepOnce();
    }
    if (currentTick < end) {
        // The skipped tail leaves the event queue's schedule floor
        // where n single steps would have left it.
        eq.serviceUpTo(end - 1);
        currentTick = end;
    }
    if (!timeseries.empty())
        sampleTimeseries(currentTick);
}

Tick
Simulation::run(Tick max_ticks)
{
    const Tick start = currentTick;
    const Tick budget = wd.tickBudget;
    std::uint64_t lastStamp = progressStamp();
    Tick stallStart = currentTick;
    std::uint64_t iters = 0;
    // Components may have gained work since the last run()/step()
    // without a notifyWake (e.g. constructed busy); re-derive every
    // wake once so the scan starts accurate.
    rearmAll();
    while (true) {
        Tick next = nextInterestingTick();
        if (next == tickNever)
            break;
        if (next > currentTick) {
            // Idle gap: jump straight to the next event / wake-up.
            currentTick = next;
        }
        stepOnce();
        ++iters;
        if (!timeseries.empty())
            sampleTimeseries(currentTick);
        const bool over_budget =
            budget ? currentTick > budget
                   : currentTick - start > max_ticks;
        if (over_budget) {
            reportFailure(
                FailureKind::Runaway,
                strprintf(
                    "simulation exceeded %llu ticks without draining",
                    static_cast<unsigned long long>(
                        budget ? budget : max_ticks)),
                diagnosticDump());
        }
        if (wd.stallWindow) {
            std::uint64_t stamp = progressStamp();
            if (stamp != lastStamp) {
                lastStamp = stamp;
                stallStart = currentTick;
            } else if (currentTick - stallStart >= wd.stallWindow) {
                reportFailure(
                    FailureKind::Deadlock,
                    strprintf("no component progress for %llu ticks "
                              "while busy (deadlock)",
                              static_cast<unsigned long long>(
                                  wd.stallWindow)),
                    diagnosticDump());
            }
        }
    }
    TRACE_EVENT_SPAN(simChan, trace::Category::Sim, "run", start,
                     currentTick, iters);
    return currentTick - start;
}

void
Simulation::advanceTo(Tick t)
{
    if (t <= currentTick)
        return;
    if (wd.tickBudget && t > wd.tickBudget) {
        reportFailure(
            FailureKind::Runaway,
            strprintf("simulation exceeded %llu ticks without "
                      "draining (analytic completion at %llu)",
                      static_cast<unsigned long long>(wd.tickBudget),
                      static_cast<unsigned long long>(t)),
            diagnosticDump());
    }
    eq.serviceUpTo(t);
    currentTick = t;
    if (!timeseries.empty())
        sampleTimeseries(currentTick);
}

} // namespace scusim::sim
