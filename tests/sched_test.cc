/**
 * @file
 * Scheduler-equivalence gate: the event-driven scheduler must retrace
 * exactly the trajectory of the reference polling loop. Full stats
 * dumps — every counter of every component — are compared byte for
 * byte across both modes for every primitive on both systems, plus
 * unit tests of the mode plumbing (env default, process override,
 * per-instance setScheduler) and of notifyWake re-arming.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "harness/runner.hh"
#include "sim/simulation.hh"

using namespace scusim;
using namespace scusim::harness;
using sim::SchedulerMode;
using sim::Simulation;

namespace
{

/** Force every Simulation built during @p f into @p mode. */
class SchedulerOverrideGuard
{
  public:
    explicit SchedulerOverrideGuard(SchedulerMode m)
    {
        Simulation::overrideDefaultScheduler(m);
    }
    ~SchedulerOverrideGuard()
    {
        Simulation::clearDefaultSchedulerOverride();
    }
};

std::string
statsDumpFor(const RunConfig &base, SchedulerMode mode)
{
    SchedulerOverrideGuard guard(mode);
    RunConfig cfg = base;
    std::ostringstream os;
    cfg.dumpStatsTo = &os;
    RunResult r = runPrimitive(cfg);
    EXPECT_TRUE(r.validated)
        << to_string(cfg.primitive) << " on " << cfg.systemName
        << " failed functional validation";
    EXPECT_FALSE(os.str().empty());
    return os.str();
}

class SchedulerEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Primitive, std::string>>
{
};

TEST_P(SchedulerEquivalence, EventAndPollingDumpIdenticalStats)
{
    const auto [prim, system] = GetParam();

    RunConfig cfg;
    cfg.systemName = system;
    cfg.primitive = prim;
    cfg.mode = ScuMode::ScuEnhanced;
    cfg.dataset = "cond";
    cfg.scale = 0.01;

    const std::string event =
        statsDumpFor(cfg, SchedulerMode::EventDriven);
    const std::string polling =
        statsDumpFor(cfg, SchedulerMode::Polling);
    ASSERT_EQ(event.size(), polling.size());
    EXPECT_EQ(event, polling)
        << "event-driven scheduling changed the simulation";
}

INSTANTIATE_TEST_SUITE_P(
    AllPrimitivesBothSystems, SchedulerEquivalence,
    ::testing::Combine(::testing::Values(Primitive::Bfs,
                                         Primitive::Sssp,
                                         Primitive::Pr),
                       ::testing::Values(std::string("GTX980"),
                                         std::string("TX1"))),
    [](const auto &info) {
        return to_string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

TEST(SchedulerMode_, DefaultResolutionOrder)
{
    ::unsetenv("SCUSIM_SCHEDULER");
    EXPECT_EQ(Simulation::defaultScheduler(),
              SchedulerMode::EventDriven);
    ::setenv("SCUSIM_SCHEDULER", "polling", 1);
    EXPECT_EQ(Simulation::defaultScheduler(),
              SchedulerMode::Polling);
    ::setenv("SCUSIM_SCHEDULER", "event", 1);
    EXPECT_EQ(Simulation::defaultScheduler(),
              SchedulerMode::EventDriven);
    // The process-wide override out-ranks the environment.
    ::setenv("SCUSIM_SCHEDULER", "event", 1);
    Simulation::overrideDefaultScheduler(SchedulerMode::Polling);
    EXPECT_EQ(Simulation::defaultScheduler(),
              SchedulerMode::Polling);
    Simulation::clearDefaultSchedulerOverride();
    ::unsetenv("SCUSIM_SCHEDULER");

    Simulation simDefault;
    EXPECT_EQ(simDefault.scheduler(), SchedulerMode::EventDriven);
    simDefault.setScheduler(SchedulerMode::Polling);
    EXPECT_EQ(simDefault.scheduler(), SchedulerMode::Polling);
}

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
    s.setScheduler(SchedulerMode::EventDriven);
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
    s.setScheduler(SchedulerMode::EventDriven);
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
