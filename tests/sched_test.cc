/**
 * @file
 * Unit tests of the event-driven run loop: fast-forwarding across
 * idle gaps and notifyWake re-arming. Whole-run trajectories are
 * pinned by ModelGolden in determinism_test.
 */

#include <gtest/gtest.h>

#include "sim/clocked.hh"
#include "sim/simulation.hh"

using namespace scusim;
using sim::Simulation;

namespace
{

namespace unit
{

/** Wakes at a fixed tick, runs for a fixed number of ticks. */
class Sleeper : public sim::Clocked
{
  public:
    Sleeper(Tick wake, Tick ticks) : wakeAt(wake), left(ticks) {}

    void
    tick(Tick) override
    {
        if (left) {
            --left;
            noteProgress();
        }
    }

    bool busy(Tick now) const override
    {
        return left && now >= wakeAt;
    }

    Tick
    nextWakeTick() const override
    {
        return left ? wakeAt : tickNever;
    }

    Tick wakeAt;
    Tick left;
};

} // namespace unit

TEST(SchedulerMode_, EventModeFastForwardsAndServicesAllWork)
{
    Simulation s;
    unit::Sleeper a(1000000, 3), b(500, 2);
    s.addClocked(&a, "a");
    s.addClocked(&b, "b");
    s.run();
    EXPECT_EQ(a.left, 0u);
    EXPECT_EQ(b.left, 0u);
    // Wake at 1000000, three busy ticks, done after the third.
    EXPECT_EQ(s.now(), 1000003u);
}

TEST(SchedulerMode_, NotifyWakeReArmsMidRunWork)
{
    // New work handed to an idle component between step() calls is
    // picked up because run()/step() re-derive every wake on entry —
    // and notifyWake makes the re-arm immediate for code that adds
    // work outside tick(), the way Sm::beginKernel does.
    Simulation s;
    unit::Sleeper a(0, 1);
    s.addClocked(&a, "a");
    s.run();
    EXPECT_EQ(s.now(), 1u);

    a.wakeAt = s.now() + 100;
    a.left = 2;
    a.notifyWake();
    s.run();
    EXPECT_EQ(a.left, 0u);
    EXPECT_EQ(s.now(), 103u);
}

} // namespace
