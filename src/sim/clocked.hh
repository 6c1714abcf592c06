/**
 * @file
 * Interface for cycle-stepped components (SMs, the SCU pipeline).
 */

#ifndef SCUSIM_SIM_CLOCKED_HH
#define SCUSIM_SIM_CLOCKED_HH

#include <cstddef>

#include "common/types.hh"
#include "sim/check.hh"

namespace scusim::sim
{

class Simulation;

/**
 * A component advanced once per simulated cycle while it has work.
 * When every Clocked object is idle the simulation fast-forwards to
 * the earliest nextWakeTick() (e.g. an outstanding memory response).
 *
 * Scheduling contract: the owning Simulation caches each component's
 * earliest-busy tick (from busy()/nextWakeTick()) and re-derives it
 * after every tick() it delivers. State changes that arrive *outside*
 * tick() — new work handed to an idle component, e.g. a kernel launch
 * — must call notifyWake() so the event-driven scheduler re-arms;
 * run()/step() also re-derive every component's wake on entry, so a
 * missed notification between calls cannot strand a component.
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance one cycle at absolute time @p now. */
    virtual void tick(Tick now) = 0;

    /** True if the component can make progress at tick @p now. */
    virtual bool busy(Tick now) const = 0;

    /**
     * Earliest future tick at which the component will become busy
     * again (tickNever if it is fully drained). Only consulted when
     * busy() is false.
     */
    virtual Tick nextWakeTick() const { return tickNever; }

    /**
     * Invariant bookkeeping called by the Simulation before every
     * tick(): time must be non-decreasing per component. A violation
     * usually means the object is registered with two Simulations —
     * the classic source of nondeterminism under the parallel
     * executor. No-op in unchecked builds.
     */
    void
    noteTick(Tick now)
    {
#if SCUSIM_CHECK_ENABLED
        checkTickMonotonic("Clocked object", now, lastTickSeen);
        lastTickSeen = now;
#else
        (void)now;
#endif
    }

    /**
     * Work units completed so far (instructions issued, warps
     * retired, ...). The Simulation's deadlock watchdog compares the
     * sum across components between ticks: busy components whose
     * progress counters stand still are hung, not working.
     */
    std::uint64_t progressCount() const { return progressed; }

    /**
     * Tell the owning Simulation this component's busy state may
     * have changed outside tick() (new work arrived while idle), so
     * the event-driven scheduler must re-derive its wake tick. No-op
     * when the component is not registered with a Simulation (unit
     * tests). Defined in simulation.cc (needs the Simulation
     * definition).
     */
    void notifyWake();

  protected:
    /** Record @p n units of forward progress (subclasses' tick()). */
    void noteProgress(std::uint64_t n = 1) { progressed += n; }

  private:
    friend class Simulation;

    /** Latest tick this component was advanced at (checked builds). */
    Tick lastTickSeen = 0;
    std::uint64_t progressed = 0;
    /** Owning scheduler backpointer, set by Simulation::addClocked. */
    Simulation *schedOwner = nullptr;
    /** This component's index in the owning Simulation. */
    std::size_t schedIndex = 0;
};

} // namespace scusim::sim

#endif // SCUSIM_SIM_CLOCKED_HH
