#include "sim/simulator.h"

#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/process.h"

namespace bdisk::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.EventsExecuted(), 0U);
}

// Now() is 0 until the first RunUntil, so ScheduleAfter(t) schedules at
// absolute time t in the setups below.

TEST(SimulatorTest, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<double> observed;
  sim.ScheduleAfter(2.5, [&] { observed.push_back(sim.Now()); });
  sim.ScheduleAfter(1.0, [&] { observed.push_back(sim.Now()); });
  sim.RunUntil(2.5);
  EXPECT_EQ(observed, (std::vector<double>{1.0, 2.5}));
  EXPECT_EQ(sim.Now(), 2.5);
  EXPECT_EQ(sim.EventsExecuted(), 2U);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAfter(10.0, [&] {
    sim.ScheduleAfter(5.0, [&] { fired_at = sim.Now(); });
  });
  sim.RunUntil(100.0);
  EXPECT_EQ(fired_at, 15.0);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(1.0, [&] { ++fired; });
  sim.ScheduleAfter(2.0, [&] { ++fired; });
  sim.ScheduleAfter(3.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 2);  // Events at exactly the deadline run.
  EXPECT_EQ(sim.Now(), 2.0);
  EXPECT_EQ(sim.PendingEvents(), 1U);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Simulator sim;
  sim.RunUntil(100.0);
  EXPECT_EQ(sim.Now(), 100.0);
}

TEST(SimulatorTest, StopFromInsideCallback) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAfter(2.0, [&] { ++fired; });
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 1.0);  // The clock rests where Stop() was called.
  EXPECT_EQ(sim.PendingEvents(), 1U);
  // The run can be resumed afterwards.
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, SelfReschedulingEventChain) {
  Simulator sim;
  int count = 0;
  // The scheduled callable must fit EventFn's two-pointer inline budget, so
  // the chain logic lives in a std::function and a one-pointer trampoline
  // is what actually gets scheduled.
  std::function<void()> tick = [&] {
    ++count;
    if (count < 100) sim.ScheduleAfter(1.0, [&tick] { tick(); });
  };
  sim.ScheduleAfter(0.0, [&tick] { tick(); });
  sim.RunUntil(99.0);
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.Now(), 99.0);
  EXPECT_EQ(sim.PendingEvents(), 0U);  // The chain ended on its own.
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(1.0, [&] { ++fired; });
  sim.ScheduleAfter(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, CancelledEventDoesNotRun) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAfter(1.0, [&] { fired = true; });
  sim.Cancel(id);
  sim.RunUntil(10.0);
  EXPECT_FALSE(fired);
}

// A handler for exercising the periodic fast path through the Simulator.
class PeriodicCounter : public EventHandler {
 public:
  explicit PeriodicCounter(Simulator* s) : sim_(s) {}
  std::vector<double> fire_times;

 private:
  void OnEvent() override { fire_times.push_back(sim_->Now()); }
  Simulator* sim_;
};

TEST(SimulatorTest, SchedulePeriodicFiresEveryInterval) {
  Simulator sim;
  PeriodicCounter counter(&sim);
  sim.SchedulePeriodic(2.0, &counter);
  sim.RunUntil(7.0);
  EXPECT_EQ(counter.fire_times, (std::vector<double>{2.0, 4.0, 6.0}));
  EXPECT_EQ(sim.Now(), 7.0);
  EXPECT_EQ(sim.PendingEvents(), 1U);  // Still armed for t=8.
}

TEST(SimulatorDeathTest, RefusesASecondSlotClock) {
  Simulator sim;
  PeriodicCounter first(&sim);
  PeriodicCounter second(&sim);
  sim.SchedulePeriodic(1.0, &first);
  EXPECT_DEATH(sim.SchedulePeriodic(2.0, &second), "one periodic timer");
}

TEST(SimulatorTest, PeriodicInterleavesWithOneShotsDeterministically) {
  Simulator sim;
  std::vector<int> order;
  struct Tagger : EventHandler {
    std::vector<int>* order;
    void OnEvent() override { order->push_back(0); }
  } tagger;
  tagger.order = &order;
  // Periodic armed before the same-time one-shot: FIFO puts it first at
  // t=1; the one-shot scheduled later lands second.
  sim.SchedulePeriodic(1.0, &tagger);
  sim.ScheduleAfter(1.0, [&order] { order.push_back(1); });
  sim.ScheduleAfter(2.0, [&order] { order.push_back(2); });
  sim.RunUntil(2.0);
  // t=2: the one-shot was scheduled (seq drawn) before the periodic's
  // re-arm, so it precedes the second periodic fire.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0}));
}

// The System's actual shape: one periodic slot timer whose handler now
// and then schedules a one-shot (a "pull arrival") that lands mid-span and
// must break the batch exactly there. Records every fire: slots as
// +Now(), one-shots as -Now().
class MixedWorkload : public EventHandler {
 public:
  explicit MixedWorkload(Simulator* sim) : sim_(sim) {
    sim->SchedulePeriodic(1.0, this);
  }
  std::vector<double> trace;

 private:
  void OnEvent() override {
    trace.push_back(sim_->Now());
    if (++slot_ % 7 == 0) {
      Simulator* s = sim_;
      std::vector<double>* t = &trace;
      s->ScheduleAfter(2.5, [s, t] { t->push_back(-s->Now()); });
    }
  }
  Simulator* sim_;
  int slot_ = 0;
};

// The reference for RunUntil(deadline): a twin driven one Step() at a time
// through the `events` events RunUntil executed, none of them past the
// deadline.
void StepThrough(Simulator* twin, std::uint64_t events, SimTime deadline) {
  while (twin->EventsExecuted() < events) ASSERT_TRUE(twin->Step());
  EXPECT_LE(twin->Now(), deadline);
}

TEST(SimulatorTest, BatchedPeriodicSpansMatchSteppedExecution) {
  Simulator batched;
  MixedWorkload batched_load(&batched);
  batched.RunUntil(500.0);
  EXPECT_EQ(batched.Now(), 500.0);

  Simulator stepped;
  MixedWorkload stepped_load(&stepped);
  StepThrough(&stepped, batched.EventsExecuted(), 500.0);
  EXPECT_EQ(batched_load.trace, stepped_load.trace);  // Bit-identical.
  EXPECT_EQ(batched.PeriodicRearms(), stepped.PeriodicRearms());
  EXPECT_GT(batched.PeriodicSpans(), 0U);  // The span loop engaged...
  EXPECT_EQ(stepped.PeriodicSpans(), 0U);  // ...and Step() never spans.
  // The twin's next event is past the deadline: RunUntil stopped at the
  // right one.
  ASSERT_TRUE(stepped.Step());
  EXPECT_GT(stepped.Now(), 500.0);
}

TEST(SimulatorTest, BatchedSpanCountsEventsIdentically) {
  // events_executed feeds the obs kernel profile and the fusion invariant;
  // the span loop must bump it exactly like Step() does.
  Simulator batched;
  PeriodicCounter batched_counter(&batched);
  batched.SchedulePeriodic(2.0, &batched_counter);
  batched.RunUntil(100.0);
  EXPECT_EQ(batched.EventsExecuted(), 50U);
  EXPECT_EQ(batched_counter.fire_times.size(), 50U);
  EXPECT_GT(batched.PeriodicSpans(), 0U);

  Simulator stepped;
  PeriodicCounter stepped_counter(&stepped);
  stepped.SchedulePeriodic(2.0, &stepped_counter);
  StepThrough(&stepped, 50, 100.0);
  EXPECT_EQ(stepped_counter.fire_times, batched_counter.fire_times);
  EXPECT_EQ(stepped.PeriodicRearms(), batched.PeriodicRearms());
}

TEST(SimulatorTest, BatchedSpanHonoursStopAndDeadline) {
  Simulator sim;
  struct Stopper : EventHandler {
    Simulator* sim;
    int fires = 0;
    void OnEvent() override {
      if (++fires == 3) sim->Stop();
    }
  } stopper;
  stopper.sim = &sim;
  sim.SchedulePeriodic(1.0, &stopper);
  sim.RunUntil(100.0);
  EXPECT_EQ(stopper.fires, 3);
  EXPECT_EQ(sim.Now(), 3.0);
  // Resuming with a deadline mid-interval: the span must not overshoot.
  sim.RunUntil(5.5);
  EXPECT_EQ(stopper.fires, 5);
  EXPECT_EQ(sim.Now(), 5.5);
}

// A minimal Process subclass exercising the wakeup machinery.
class CountingProcess : public Process {
 public:
  explicit CountingProcess(Simulator* s) : Process(s) {}
  void Go(SimTime delay) { ScheduleWakeup(delay); }
  void Abort() { CancelWakeup(); }
  int wakeups = 0;
  std::vector<SimTime> woke_at;

 protected:
  void OnWakeup() override {
    ++wakeups;
    woke_at.push_back(Now());
    if (wakeups < 3) ScheduleWakeup(2.0);
  }
};

TEST(ProcessTest, WakeupChainRuns) {
  Simulator sim;
  CountingProcess p(&sim);
  p.Go(1.0);
  EXPECT_EQ(sim.PendingEvents(), 1U);
  sim.RunUntil(100.0);
  EXPECT_EQ(p.wakeups, 3);
  EXPECT_EQ(p.woke_at, (std::vector<SimTime>{1.0, 3.0, 5.0}));  // 1 + 2 + 2.
  EXPECT_EQ(sim.PendingEvents(), 0U);
}

TEST(ProcessTest, ReschedulingReplacesPendingWakeup) {
  Simulator sim;
  CountingProcess p(&sim);
  p.Go(10.0);
  p.Go(1.0);  // Replaces the 10.0 wakeup.
  sim.RunUntil(2.0);
  EXPECT_EQ(p.wakeups, 1);  // The 1.0 wakeup fired; the 10.0 one never will.
  sim.RunUntil(100.0);
  EXPECT_EQ(p.wakeups, 3);  // Chain continues at 3.0 and 5.0 only.
  EXPECT_EQ(p.woke_at, (std::vector<SimTime>{1.0, 3.0, 5.0}));
}

TEST(ProcessTest, CancelWakeupPreventsFiring) {
  Simulator sim;
  CountingProcess p(&sim);
  p.Go(1.0);
  p.Abort();
  sim.RunUntil(100.0);
  EXPECT_EQ(p.wakeups, 0);
}

}  // namespace
}  // namespace bdisk::sim
