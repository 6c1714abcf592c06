/**
 * @file
 * Top-level simulation driver: owns the notion of "now", steps all
 * registered Clocked components, fast-forwards across idle gaps and
 * — when a watchdog is armed — watches its own progress: a run that exceeds
 * its tick budget is reported as a *runaway*, a run whose busy
 * components stop making progress as a *deadlock*, both with a
 * per-component diagnostic dump instead of a bare fatal.
 */

#ifndef SCUSIM_SIM_SIMULATION_HH
#define SCUSIM_SIM_SIMULATION_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace scusim::stats
{
class Timeseries;
} // namespace scusim::stats

namespace scusim::trace
{
class TraceChannel;
class TraceSink;
} // namespace scusim::trace

namespace scusim::sim
{

/** Progress-watchdog thresholds; 0 disables the respective check. */
struct WatchdogConfig
{
    /** Absolute tick ceiling of the run (runaway detection). */
    Tick tickBudget = 0;
    /**
     * Ticks a busy simulation may spin without any component or
     * event progress before it is declared deadlocked.
     */
    Tick stallWindow = 0;
};

/**
 * The simulation loop. Components register once; run() advances time
 * until every component is drained and no events remain.
 */
class Simulation
{
  public:
    Simulation();
    ~Simulation();
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    Tick now() const { return currentTick; }

    /** Register a cycle-stepped component (name for diagnostics). */
    void addClocked(Clocked *c, std::string name = "");

    EventQueue &events() { return eq; }

    /** Arm the progress watchdog for this run. */
    void setWatchdog(const WatchdogConfig &w) { wd = w; }

    /**
     * Install the run's trace sink (takes ownership; null detaches).
     * Components fetch their channels through traceSink() during
     * System::attachTrace, so install before wiring.
     */
    void installTraceSink(std::unique_ptr<trace::TraceSink> sink);

    /** The run's trace sink, or null (the common case). */
    trace::TraceSink *traceSink() const { return tracer.get(); }

    /**
     * Register a windowed timeseries to be sampled as simulated time
     * advances (both the cycle-stepped loop and analytic advanceTo
     * jumps). The series must outlive the sampling — the harness owns
     * trace-driven series for the duration of the run.
     */
    void addTimeseries(stats::Timeseries *ts);

    /**
     * Per-component diagnostic snapshot: busy state, next wake tick
     * and progress counter per Clocked component, plus event-queue
     * depth. Attached to watchdog failures.
     */
    std::string diagnosticDump() const;

    /**
     * Advance until all components are idle with no future wake-ups
     * and the event queue is empty.
     * @param max_ticks safety bound when no watchdog tick budget is
     *                  armed; exceeding either is reported as a
     *                  runaway (FailureKind::Runaway).
     * @return ticks elapsed during this call.
     */
    Tick run(Tick max_ticks = static_cast<Tick>(1) << 40);

    /**
     * Advance exactly @p n ticks (events + clocked components). Ticks
     * where nothing is due are skipped, not stepped: events and
     * wake-ups inside the window fire at their exact ticks, as they
     * would under n calls of step(1).
     */
    void step(Tick n = 1);

    /**
     * Jump the clock forward to @p t (no-op if in the past). Used by
     * components that compute their completion time analytically
     * (the SCU pipeline) while the cycle-stepped components are
     * drained. Pending events up to @p t are serviced; the watchdog
     * tick budget is consulted, so an analytically-runaway completion
     * tick is caught too.
     */
    void advanceTo(Tick t);

  private:
    friend class Clocked; // notifyWake -> wakeComponent

    /** Earliest tick at which anything can happen, or tickNever. */
    Tick nextInterestingTick();

    /** Monotone counter of everything that counts as progress. */
    std::uint64_t progressStamp() const;

    /** Record every timeseries window boundary at or before @p now. */
    void sampleTimeseries(Tick now);

    /** Re-derive component @p idx's wake from busy()/nextWakeTick(). */
    void wakeComponent(std::size_t idx);

    /** Re-derive every component's wake tick (run()/step() entry). */
    void rearmAll();

    /** Service exactly one tick (events + due components). */
    void stepOnce();

    Tick currentTick = 0;
    EventQueue eq;
    std::vector<Clocked *> clockedList;
    std::vector<std::string> clockedNames;
    WatchdogConfig wd;
    std::unique_ptr<trace::TraceSink> tracer;
    trace::TraceChannel *simChan = nullptr;
    std::vector<stats::Timeseries *> timeseries;

    /**
     * Earliest tick each component can be busy (tickNever = idle),
     * in registration order. The components are the SMs (16 per
     * GTX980 device) and the interconnect, so the scheduler scans
     * this array rather than keeping a priority queue over it.
     */
    std::vector<Tick> armed;
    /** Indices due at the current tick (scratch, ascending). */
    std::vector<std::size_t> readyScratch;
};

} // namespace scusim::sim

#endif // SCUSIM_SIM_SIMULATION_HH
