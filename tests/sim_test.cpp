// Unit tests for sci::sim — the discrete-event kernel.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace sci::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator simulator(1);
  std::vector<int> order;
  simulator.schedule(Duration::millis(30), [&] { order.push_back(3); });
  simulator.schedule(Duration::millis(10), [&] { order.push_back(1); });
  simulator.schedule(Duration::millis(20), [&] { order.push_back(2); });
  simulator.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now().micros(), 30'000);
}

TEST(SimulatorTest, SameInstantRunsInSchedulingOrder) {
  Simulator simulator(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule(Duration::millis(5), [&, i] { order.push_back(i); });
  }
  simulator.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator simulator(1);
  int fired = 0;
  simulator.schedule(Duration::seconds(1), [&] { ++fired; });
  simulator.schedule(Duration::seconds(3), [&] { ++fired; });
  const auto executed = simulator.run_until(SimTime::from_micros(2'000'000));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now().micros(), 2'000'000);  // advanced to horizon
  simulator.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simulator(1);
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) simulator.schedule(Duration::millis(1), recurse);
  };
  simulator.schedule(Duration::millis(1), recurse);
  simulator.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(simulator.now().micros(), 5'000);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator(1);
  int fired = 0;
  const TimerHandle handle =
      simulator.schedule(Duration::millis(10), [&] { ++fired; });
  simulator.schedule(Duration::millis(20), [&] { ++fired; });
  simulator.cancel(handle);
  simulator.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelAfterFiringIsANoop) {
  Simulator simulator(1);
  int fired = 0;
  const TimerHandle handle =
      simulator.schedule(Duration::millis(1), [&] { ++fired; });
  simulator.run_all();
  simulator.cancel(handle);  // must not crash or corrupt
  simulator.schedule(Duration::millis(1), [&] { ++fired; });
  simulator.run_all();
  EXPECT_EQ(fired, 2);
}

// A fired event's slot is recycled by the next schedule; the stale handle
// must not reach the event that now occupies it.
TEST(SimulatorTest, CancelAfterFireLeavesSlotReuserUntouched) {
  Simulator simulator(1);
  int first = 0;
  int later = 0;
  const TimerHandle spent =
      simulator.schedule(Duration::millis(1), [&] { ++first; });
  simulator.run_all();
  simulator.schedule(Duration::millis(1), [&] { ++later; });
  simulator.schedule(Duration::millis(2), [&] { ++later; });
  simulator.cancel(spent);
  simulator.cancel(spent);
  simulator.run_all();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(later, 2);
}

TEST(SimulatorTest, DoubleCancelCountsTwiceAndSparesLaterEvents) {
  Simulator simulator(1);
  int cancelled_fired = 0;
  int later = 0;
  const TimerHandle handle =
      simulator.schedule(Duration::millis(5), [&] { ++cancelled_fired; });
  simulator.schedule(Duration::millis(5), [&] { ++later; });
  simulator.cancel(handle);
  simulator.cancel(handle);
  simulator.run_all();
  // The cancelled entry has left the queue; a third cancel is stale, and
  // whatever reuses its slot still runs.
  simulator.schedule(Duration::millis(1), [&] { ++later; });
  simulator.cancel(handle);
  simulator.run_all();
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_EQ(later, 2);
  EXPECT_EQ(simulator.executed_events(), 2u);
  // One sim.events.cancelled per cancel() on a valid handle.
  EXPECT_EQ(simulator.metrics().snapshot().counter("sim.events.cancelled"),
            3u);
}

TEST(SimulatorTest, CancelSameInstantEventFromInsideATask) {
  Simulator simulator(1);
  std::vector<int> order;
  TimerHandle victim;
  TimerHandle self;
  self = simulator.schedule(Duration::millis(3), [&] {
    order.push_back(1);
    simulator.cancel(victim);
    simulator.cancel(self);  // the running event's own handle is spent
  });
  victim = simulator.schedule(Duration::millis(3), [&] { order.push_back(2); });
  simulator.schedule(Duration::millis(3), [&] { order.push_back(3); });
  simulator.schedule(Duration::millis(4), [&] { order.push_back(4); });
  simulator.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(SimulatorTest, CancelDefaultHandleIsANoop) {
  Simulator simulator(1);
  simulator.cancel(TimerHandle());
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator simulator(1);
  int fired = 0;
  simulator.schedule(Duration::millis(1), [&] { ++fired; });
  simulator.schedule(Duration::millis(2), [&] { ++fired; });
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(simulator.step());
}

TEST(SimulatorTest, CountersTrackActivity) {
  Simulator simulator(1);
  simulator.schedule(Duration::millis(1), [] {});
  simulator.schedule(Duration::millis(2), [] {});
  const TimerHandle cancelled = simulator.schedule(Duration::millis(3), [] {});
  simulator.cancel(cancelled);
  simulator.run_all();
  EXPECT_EQ(simulator.scheduled_events(), 3u);
  EXPECT_EQ(simulator.executed_events(), 2u);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(PeriodicTimerTest, FiresAtThePeriodUntilStopped) {
  Simulator simulator(1);
  int ticks = 0;
  PeriodicTimer timer(simulator, Duration::seconds(1), [&] { ++ticks; });
  timer.start();
  simulator.run_until(SimTime::from_micros(5'500'000));
  EXPECT_EQ(ticks, 5);
  timer.stop();
  simulator.run_until(SimTime::from_micros(10'000'000));
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTimerTest, StartIsIdempotent) {
  Simulator simulator(1);
  int ticks = 0;
  PeriodicTimer timer(simulator, Duration::seconds(1), [&] { ++ticks; });
  timer.start();
  timer.start();
  simulator.run_until(SimTime::from_micros(3'500'000));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimerTest, StoppingInsideTheCallbackStopsCleanly) {
  Simulator simulator(1);
  int ticks = 0;
  std::optional<PeriodicTimer> timer;
  timer.emplace(simulator, Duration::seconds(1), [&] {
    if (++ticks == 3) timer->stop();
  });
  timer->start();
  simulator.run_all();
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimerTest, DestructionCancelsPendingTick) {
  Simulator simulator(1);
  int ticks = 0;
  {
    PeriodicTimer timer(simulator, Duration::seconds(1), [&] { ++ticks; });
    timer.start();
  }
  simulator.run_all();  // would crash on dangling capture if not cancelled
  EXPECT_EQ(ticks, 0);
}

TEST(SimulatorTest, DeterministicAcrossRunsWithSameSeed) {
  const auto run = [] {
    Simulator simulator(77);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 10; ++i) {
      simulator.schedule(
          Duration::micros(static_cast<std::int64_t>(
              simulator.rng().next_below(1000))),
          [&values, &simulator] { values.push_back(simulator.rng().next_u64()); });
    }
    simulator.run_all();
    return values;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sci::sim
