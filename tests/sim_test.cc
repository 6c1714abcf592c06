/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, clock
 * domain conversions, the fast-forwarding run and step loops, the
 * thread-local error trap and the progress watchdog.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"
#include "sim/clock.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

using namespace scusim;
using namespace scusim::sim;

TEST(ClockDomain, SecondsConversion)
{
    ClockDomain c(1e9);
    EXPECT_DOUBLE_EQ(c.toSeconds(1000000000), 1.0);
    EXPECT_EQ(c.fromNs(10.0), 10u);
    EXPECT_EQ(c.fromNs(10.5), 11u); // rounds up
}

TEST(ClockDomain, BandwidthCycles)
{
    ClockDomain c(1e9);
    // 128 bytes at 12.8 GB/s = 10 ns = 10 cycles.
    EXPECT_EQ(c.cyclesForBytes(128, 12.8e9), 10u);
}

TEST(EventQueue, FiresInTickOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    EXPECT_EQ(q.nextTick(), 10u);
    q.serviceUpTo(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableWithinSameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&](Tick) { order.push_back(1); });
    q.schedule(5, [&](Tick) { order.push_back(2); });
    q.serviceUpTo(5);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&](Tick t) {
        ++fired;
        q.schedule(t + 1, [&](Tick) { ++fired; });
    });
    q.serviceUpTo(10);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PartialService)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&](Tick) { ++fired; });
    q.schedule(50, [&](Tick) { ++fired; });
    q.serviceUpTo(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.nextTick(), 50u);
}

namespace
{

/** A component busy for the first N ticks it is ticked. */
class CountdownClocked : public Clocked
{
  public:
    explicit CountdownClocked(int n) : remaining(n) {}

    void
    tick(Tick) override
    {
        --remaining;
        ++ticked;
        noteProgress();
    }

    bool busy(Tick) const override { return remaining > 0; }

    int remaining;
    int ticked = 0;
};

/** Idle component that wakes once at a fixed tick. */
class SleeperClocked : public Clocked
{
  public:
    explicit SleeperClocked(Tick at) : wake(at) {}

    void
    tick(Tick now) override
    {
        if (now >= wake)
            done = true;
    }

    bool
    busy(Tick now) const override
    {
        return !done && now >= wake;
    }

    Tick
    nextWakeTick() const override
    {
        return done ? tickNever : wake;
    }

    Tick wake;
    bool done = false;
};

} // namespace

TEST(Simulation, RunsClockedUntilDrained)
{
    Simulation s;
    CountdownClocked c(5);
    s.addClocked(&c);
    s.run();
    EXPECT_EQ(c.ticked, 5);
    EXPECT_EQ(c.remaining, 0);
}

TEST(Simulation, FastForwardsIdleGaps)
{
    Simulation s;
    SleeperClocked sleeper(1000000);
    s.addClocked(&sleeper);
    Tick elapsed = s.run();
    // The loop must jump, not crawl: elapsed covers the gap and the
    // component fired at its wake tick.
    EXPECT_TRUE(sleeper.done);
    EXPECT_GE(elapsed, 1000000u);
    EXPECT_LE(elapsed, 1000002u);
}

TEST(Simulation, AdvanceToServicesEvents)
{
    Simulation s;
    int fired = 0;
    s.events().schedule(100, [&](Tick) { ++fired; });
    s.advanceTo(50);
    EXPECT_EQ(fired, 0);
    s.advanceTo(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.now(), 150u);
    // Going backwards is a no-op.
    s.advanceTo(10);
    EXPECT_EQ(s.now(), 150u);
}

TEST(Simulation, StepAdvancesExactly)
{
    Simulation s;
    s.step(7);
    EXPECT_EQ(s.now(), 7u);
}

namespace
{

/** One serviced thing: a component's tick() or an event. */
struct Serviced
{
    Tick tick;
    int who; ///< component index, or 1000 + event id

    bool operator==(const Serviced &) const = default;
};

/**
 * A component with a script of work: at each wake tick it turns busy
 * for a number of ticks. Events may add work at any time, calling
 * notifyWake() as out-of-band work arrival requires. From tick
 * `freezeAt` on it is wedged: busy forever, but its ticks do no work
 * and log nothing.
 */
class ScriptedClocked : public Clocked
{
  public:
    ScriptedClocked(int id, std::vector<Serviced> &log)
        : id(id), log(log)
    {}

    void
    give(Tick at, int ticks)
    {
        work.emplace(at, ticks);
    }

    void
    tick(Tick now) override
    {
        if (now >= freezeAt)
            return;
        log.push_back({now, id});
        auto it = work.begin();
        if (--it->second == 0)
            work.erase(it);
        noteProgress();
    }

    bool
    busy(Tick now) const override
    {
        return now >= freezeAt ||
               (!work.empty() && work.begin()->first <= now);
    }

    Tick
    nextWakeTick() const override
    {
        return std::min(freezeAt, work.empty() ? tickNever
                                               : work.begin()->first);
    }

    Tick freezeAt = tickNever;

  private:
    int id;
    std::vector<Serviced> &log;
    std::multimap<Tick, int> work; ///< wake tick -> busy ticks
};

/**
 * A seeded scenario: components with scripted work, events at random
 * ticks that log themselves, schedule follow-ups and hand components
 * new work. Two scenarios built from the same seed are identical.
 */
struct StepScenario
{
    StepScenario(std::uint64_t seed, bool freeze) : rng(seed)
    {
        for (int i = 0; i < 6; ++i) {
            comps.push_back(std::make_unique<ScriptedClocked>(i, log));
            for (int w = 0; w < 8; ++w)
                comps.back()->give(rng.below(3000),
                                   static_cast<int>(rng.range(1, 20)));
            sim.addClocked(comps.back().get());
        }
        if (freeze)
            comps[2]->freezeAt = 700;
        for (int e = 0; e < 120; ++e)
            schedule(rng.below(3000));
    }

    void
    schedule(Tick at)
    {
        const int id = nextEvent++;
        eventTicks.push_back(at);
        sim.events().schedule(at, [this, id](Tick now) {
            log.push_back({now, 1000 + id});
            if (rng.chance(0.3))
                schedule(now + rng.below(40));
            if (rng.chance(0.5)) {
                ScriptedClocked &c = *comps[rng.below(comps.size())];
                c.give(now + rng.below(3),
                       static_cast<int>(rng.range(1, 5)));
                c.notifyWake();
            }
        });
    }

    Rng rng;
    Simulation sim;
    std::vector<Serviced> log;
    std::vector<std::unique_ptr<ScriptedClocked>> comps;
    std::vector<Tick> eventTicks;
    int nextEvent = 0;
};

void
expectStepMatchesSingleSteps(bool freeze)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        StepScenario fast(seed, freeze), single(seed, freeze);
        Rng windows(seed * 977);
        std::size_t edges = 0;
        while (fast.sim.now() < 3300) {
            const Tick now = fast.sim.now();
            // Half the windows end on, or just past, an event tick,
            // so events on the window's last tick and one past it are
            // both covered.
            Tick n = windows.below(80);
            std::vector<Tick> ahead;
            for (Tick at : fast.eventTicks)
                if (at >= now)
                    ahead.push_back(at);
            std::sort(ahead.begin(), ahead.end());
            if (!ahead.empty() && windows.chance(0.5)) {
                const Tick at = ahead[windows.below(
                    std::min<std::size_t>(3, ahead.size()))];
                n = at - now + windows.below(2);
                ++edges;
            }
            fast.sim.step(n);
            for (Tick i = 0; i < n; ++i)
                single.sim.step(1);
            ASSERT_EQ(fast.sim.now(), single.sim.now());
            ASSERT_EQ(fast.log, single.log)
                << "seed " << seed << ", window [" << now << ", "
                << now + n << ")";
        }
        EXPECT_GT(fast.log.size(), 500u);
        EXPECT_GT(edges, 25u);
        if (freeze) {
            for (const Serviced &s : fast.log)
                EXPECT_FALSE(s.who == 2 && s.tick >= 700)
                    << "frozen component ticked at " << s.tick;
        }
    }
}

} // namespace

TEST(Simulation, StepMatchesSingleSteps)
{
    // step(n) jumps across ticks where nothing is due; it must
    // service the same events and components, at the same ticks and
    // in the same order, as n calls of step(1).
    expectStepMatchesSingleSteps(false);
    expectStepMatchesSingleSteps(true);
}

TEST(ErrorTrap, NestsAndRestores)
{
    EXPECT_FALSE(errorTrapActive());
    {
        ErrorTrapGuard outer;
        EXPECT_TRUE(errorTrapActive());
        {
            ErrorTrapGuard inner;
            EXPECT_TRUE(errorTrapActive());
        }
        EXPECT_TRUE(errorTrapActive());
    }
    EXPECT_FALSE(errorTrapActive());
}

TEST(ErrorTrap, PanicThrowsSimErrorUnderTrap)
{
    ErrorTrapGuard trap;
    try {
        panic("boom %d", 42);
        FAIL() << "panic returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), FailureKind::Panic);
        EXPECT_NE(std::string(e.what()).find("boom 42"),
                  std::string::npos);
    }
}

TEST(ErrorTrap, ReportFailureCarriesKindAndDiagnostics)
{
    ErrorTrapGuard trap;
    try {
        reportFailure(FailureKind::Deadlock, "stuck", "dump line");
        FAIL() << "reportFailure returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), FailureKind::Deadlock);
        EXPECT_EQ(e.diagnostics(), "dump line");
        EXPECT_STREQ(to_string(e.kind()), "deadlock");
    }
}

namespace
{

/** Busy forever; makes progress only when asked to. */
struct Spinner : Clocked
{
    bool productive = false;

    void
    tick(Tick) override
    {
        if (productive)
            noteProgress();
    }

    bool busy(Tick) const override { return true; }
};

} // namespace

TEST(Watchdog, BusyWithoutProgressIsDeadlock)
{
    Simulation s;
    Spinner c;
    s.addClocked(&c, "spinner");
    s.setWatchdog({.tickBudget = 0, .stallWindow = 64});
    ErrorTrapGuard trap;
    try {
        s.run(1 << 20);
        FAIL() << "deadlock not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), FailureKind::Deadlock);
        // The dump names the hung component and its busy state.
        EXPECT_NE(e.diagnostics().find("spinner"),
                  std::string::npos)
            << e.diagnostics();
        EXPECT_NE(e.diagnostics().find("busy=yes"),
                  std::string::npos)
            << e.diagnostics();
    }
}

TEST(Watchdog, TickBudgetExceededIsRunaway)
{
    Simulation s;
    Spinner c;
    c.productive = true; // progress forever: not a deadlock
    s.addClocked(&c, "spinner");
    s.setWatchdog({.tickBudget = 128, .stallWindow = 1 << 20});
    ErrorTrapGuard trap;
    try {
        s.run();
        FAIL() << "runaway not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), FailureKind::Runaway);
        EXPECT_FALSE(e.diagnostics().empty());
    }
}

TEST(Watchdog, HealthyRunDrainsUnmolested)
{
    Simulation s;
    CountdownClocked c(16);
    s.addClocked(&c, "countdown");
    s.setWatchdog({.tickBudget = 1 << 20, .stallWindow = 64});
    ErrorTrapGuard trap;
    EXPECT_NO_THROW(s.run());
    EXPECT_EQ(c.remaining, 0);
}
