#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace bdisk::sim {
namespace {

// Pops the next event and returns its fire time; fails the test if empty.
SimTime PopTime(EventQueue& queue) {
  EventQueue::Fired fired;
  EXPECT_TRUE(queue.Pop(&fired));
  return fired.when;
}

// Pops the next event and runs its action.
void PopAndRun(EventQueue& queue) {
  EventQueue::Fired fired;
  ASSERT_TRUE(queue.Pop(&fired));
  fired.fn();
}

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.Size(), 0U);
  EXPECT_EQ(queue.NextTime(), kTimeNever);
  EventQueue::Fired fired;
  EXPECT_FALSE(queue.Pop(&fired));
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Schedule(3.0, [&fired] { fired.push_back(3); });
  queue.Schedule(1.0, [&fired] { fired.push_back(1); });
  queue.Schedule(2.0, [&fired] { fired.push_back(2); });

  while (!queue.Empty()) PopAndRun(queue);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.Empty()) {
    EventQueue::Fired f;
    ASSERT_TRUE(queue.Pop(&f));
    EXPECT_EQ(f.when, 5.0);
    f.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue queue;
  queue.Schedule(7.0, [] {});
  queue.Schedule(4.0, [] {});
  EXPECT_EQ(queue.NextTime(), 4.0);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.Schedule(1.0, [&fired] { fired = true; });
  queue.Schedule(2.0, [] {});
  EXPECT_TRUE(queue.IsPending(id));
  queue.Cancel(id);
  EXPECT_FALSE(queue.IsPending(id));
  EXPECT_EQ(queue.Size(), 1U);
  EXPECT_EQ(queue.NextTime(), 2.0);

  EXPECT_EQ(PopTime(queue), 2.0);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, CancelAfterFireIsHarmless) {
  EventQueue queue;
  const EventId id = queue.Schedule(1.0, [] {});
  PopAndRun(queue);
  queue.Cancel(id);  // Already fired: must be a no-op.
  EXPECT_TRUE(queue.Empty());

  // A new event must still work after the stale cancel.
  const EventId id2 = queue.Schedule(2.0, [] {});
  EXPECT_TRUE(queue.IsPending(id2));
  EXPECT_EQ(queue.Size(), 1U);
}

TEST(EventQueueTest, CancelInvalidIdIsHarmless) {
  EventQueue queue;
  queue.Cancel(kInvalidEventId);
  queue.Cancel(~0ULL);  // Max generation, max slot: never issued.
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, DoubleCancelIsHarmless) {
  EventQueue queue;
  const EventId id = queue.Schedule(1.0, [] {});
  queue.Cancel(id);
  queue.Cancel(id);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, InterleavedScheduleAndPop) {
  EventQueue queue;
  std::vector<double> times;
  queue.Schedule(1.0, [] {});
  queue.Schedule(5.0, [] {});
  times.push_back(PopTime(queue));
  queue.Schedule(3.0, [] {});
  times.push_back(PopTime(queue));
  times.push_back(PopTime(queue));
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0, 5.0}));
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue queue;
  // Pseudo-random insertion order, ascending pop order.
  for (int i = 0; i < 1000; ++i) {
    queue.Schedule(static_cast<double>((i * 7919) % 1000), [] {});
  }
  SimTime prev = -1.0;
  while (!queue.Empty()) {
    const SimTime when = PopTime(queue);
    EXPECT_GE(when, prev);
    prev = when;
  }
}

// ------------------------------------------------ generation-tagged ids

TEST(EventQueueTest, ReusedSlotDoesNotReviveOldId) {
  EventQueue queue;
  // The first event ever scheduled occupies slot 0; cancelling it frees
  // the slot, so the next Schedule reuses it under a bumped generation.
  const EventId first = queue.Schedule(1.0, [] {});
  queue.Cancel(first);
  const EventId reused = queue.Schedule(2.0, [] {});
  EXPECT_NE(first, reused);
  EXPECT_FALSE(queue.IsPending(first));
  EXPECT_TRUE(queue.IsPending(reused));

  // Cancelling the stale id must not disturb the live occupant.
  queue.Cancel(first);
  EXPECT_TRUE(queue.IsPending(reused));
  EXPECT_EQ(queue.Size(), 1U);
  EXPECT_EQ(PopTime(queue), 2.0);
}

TEST(EventQueueTest, IdReuseStressKeepsIdsDistinct) {
  EventQueue queue;
  // Churn a single slot hard: every generation must produce a fresh id and
  // every stale id must stay dead.
  std::vector<EventId> ids;
  for (int round = 0; round < 300; ++round) {
    const EventId id = queue.Schedule(1.0, [] {});
    for (const EventId old : ids) EXPECT_FALSE(queue.IsPending(old));
    EXPECT_TRUE(queue.IsPending(id));
    ids.push_back(id);
    if (round % 2 == 0) {
      queue.Cancel(id);
    } else {
      PopAndRun(queue);
    }
    EXPECT_TRUE(queue.Empty());
  }
}

TEST(EventQueueTest, CancelHeavyChurn) {
  EventQueue queue;
  Rng rng(11);
  std::vector<EventId> live;
  std::size_t cancelled = 0;
  for (int i = 0; i < 20000; ++i) {
    live.push_back(queue.Schedule(rng.NextDouble() * 100.0, [] {}));
    // Cancel ~2 of every 3 scheduled events, oldest first.
    if (i % 3 != 0 && !live.empty()) {
      const std::size_t victim = rng.NextBounded(live.size());
      queue.Cancel(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      ++cancelled;
    }
  }
  EXPECT_GT(cancelled, 10000U);
  EXPECT_EQ(queue.Size(), live.size());
  // The survivors drain in time order despite the lazily-deleted carcasses.
  SimTime prev = -1.0;
  std::size_t drained = 0;
  while (!queue.Empty()) {
    const SimTime when = PopTime(queue);
    EXPECT_GE(when, prev);
    prev = when;
    ++drained;
  }
  EXPECT_EQ(drained, live.size());
  for (const EventId id : live) EXPECT_FALSE(queue.IsPending(id));
}

TEST(EventQueueTest, RescheduleHeavyChurn) {
  EventQueue queue;
  Rng rng(13);
  // One logical timer per lane, constantly cancel+rescheduled — the
  // Process::ScheduleWakeup pattern, which exercises slot reuse at the
  // highest possible rate.
  constexpr int kLanes = 64;
  EventId lane[kLanes] = {};
  double lane_when[kLanes] = {};
  for (int i = 0; i < 50000; ++i) {
    const auto l = static_cast<int>(rng.NextBounded(kLanes));
    if (lane[l] != kInvalidEventId) queue.Cancel(lane[l]);
    lane_when[l] = rng.NextDouble() * 1000.0;
    lane[l] = queue.Schedule(lane_when[l], [] {});
    ASSERT_LE(queue.Size(), static_cast<std::size_t>(kLanes));
  }
  // Exactly the lanes' final schedules remain, in time order.
  std::vector<double> expected;
  for (int l = 0; l < kLanes; ++l) {
    if (lane[l] != kInvalidEventId) expected.push_back(lane_when[l]);
  }
  std::sort(expected.begin(), expected.end());
  std::vector<double> drained;
  while (!queue.Empty()) drained.push_back(PopTime(queue));
  EXPECT_EQ(drained, expected);
}

TEST(EventQueueTest, SameTimeFifoSurvivesChurnAndReuse) {
  EventQueue queue;
  // Interleave same-time scheduling with cancels that free low slots, so
  // later events recycle earlier slots: FIFO order must follow schedule
  // order, not slot order.
  std::vector<int> fired;
  std::vector<EventId> doomed;
  for (int i = 0; i < 50; ++i) {
    doomed.push_back(queue.Schedule(5.0, [] {}));
  }
  for (const EventId id : doomed) queue.Cancel(id);
  for (int i = 0; i < 50; ++i) {
    queue.Schedule(5.0, [&fired, i] { fired.push_back(i); });
    // Free a slot mid-stream to force reuse for the next event.
    const EventId gap = queue.Schedule(5.0, [] {});
    queue.Cancel(gap);
  }
  while (!queue.Empty()) PopAndRun(queue);
  std::vector<int> expected(50);
  for (int i = 0; i < 50; ++i) expected[i] = i;
  EXPECT_EQ(fired, expected);
}

// ------------------------------------------------------ periodic timers

struct CountingHandler : EventHandler {
  int count = 0;
  void OnEvent() override { ++count; }
};

TEST(EventQueueTest, PeriodicFiresEveryIntervalWhenRearmed) {
  EventQueue queue;
  CountingHandler handler;
  queue.SchedulePeriodic(1.0, 1.0, &handler);
  EXPECT_FALSE(queue.Empty());
  EXPECT_EQ(queue.Size(), 1U);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(queue.NextTime(), static_cast<double>(i));
    EventQueue::Fired fired;
    ASSERT_TRUE(queue.Pop(&fired));
    EXPECT_EQ(fired.when, static_cast<double>(i));
    EXPECT_TRUE(fired.periodic);
    fired.fn();
    queue.Rearm();
  }
  EXPECT_EQ(handler.count, 5);
  EXPECT_EQ(queue.Size(), 1U);  // Still armed.
}

TEST(EventQueueDeathTest, RefusesASecondPeriodicTimer) {
  EventQueue queue;
  CountingHandler first;
  CountingHandler second;
  queue.SchedulePeriodic(1.0, 1.0, &first);
  EXPECT_DEATH(queue.SchedulePeriodic(0.5, 2.0, &second),
               "one periodic timer");
}

TEST(EventQueueTest, PeriodicAndOneShotsInterleaveFifo) {
  EventQueue queue;
  std::vector<int> order;
  struct OrderHandler : EventHandler {
    std::vector<int>* order = nullptr;
    void OnEvent() override { order->push_back(0); }
  } handler;
  handler.order = &order;

  // Periodic armed first: at t=1 it outranks the later-scheduled one-shot
  // (FIFO among ties); the one-shot scheduled after each Rearm fires after
  // the next occurrence too.
  queue.SchedulePeriodic(1.0, 1.0, &handler);
  queue.Schedule(1.0, [&order] { order.push_back(1); });
  queue.Schedule(2.0, [&order] { order.push_back(2); });

  for (int i = 0; i < 4 && !queue.Empty(); ++i) {
    EventQueue::Fired fired;
    ASSERT_TRUE(queue.Pop(&fired));
    fired.fn();
    if (fired.periodic) queue.Rearm();
    if (fired.when >= 2.0) break;
  }
  // t=1: periodic (seq 1) then one-shot (seq 2); t=2: one-shot (seq 3)
  // before the re-armed periodic (seq drawn at re-arm).
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, ScheduleDoesNotAllocatePerEventInSteadyState) {
  // Behavioural proxy for the zero-allocation claim: a schedule/pop cycle
  // at constant depth must reuse slab slots instead of growing them —
  // observable as stable ids cycling through the same slot indices.
  EventQueue queue;
  for (int i = 0; i < 64; ++i) queue.Schedule(1000.0 + i, [] {});
  std::vector<EventId> seen;
  for (int i = 0; i < 1000; ++i) {
    EventQueue::Fired fired;
    ASSERT_TRUE(queue.Pop(&fired));
    const EventId id = queue.Schedule(2000.0 + i, [] {});
    // Slot index (low 32 bits) must stay within the 64-slot high-water
    // mark established above.
    EXPECT_LT(static_cast<std::uint32_t>(id), 64U);
    seen.push_back(id);
  }
  // And every id is still unique despite the heavy slot reuse.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

// ------------------------------------------- reference-model differential

// The reference the heap is checked against: every scheduled event keyed
// by (when, schedule order), plus the set of cancelled keys. Pop takes the
// least key; cancelled keys it meets on the way are the carcasses the
// heap's lazy cancellation discards, so the model also predicts
// StaleDiscarded() after every pop.
class ReferenceQueue {
 public:
  using Key = std::pair<SimTime, int>;  // (when, schedule order).

  Key Schedule(SimTime when) {
    const Key key{when, order_++};
    keys_.insert(key);
    return key;
  }

  void Cancel(const Key& key) { cancelled_.insert(key); }

  std::size_t Size() const { return keys_.size() - cancelled_.size(); }

  // Schedule order of the next live event; discards cancelled keys ahead
  // of it.
  int Pop() {
    while (cancelled_.erase(*keys_.begin()) > 0) {
      keys_.erase(keys_.begin());
      ++discarded_;
    }
    const int order = keys_.begin()->second;
    keys_.erase(keys_.begin());
    return order;
  }

  std::uint64_t Discarded() const { return discarded_; }

 private:
  std::set<Key> keys_;
  std::set<Key> cancelled_;
  int order_ = 0;
  std::uint64_t discarded_ = 0;
};

// The core property behind the trajectory pins: driven with a random
// schedule/pop/cancel sequence, the heap pops exactly the reference's
// event stream — same times, same events, same FIFO order at equal
// timestamps — and retires each cancelled carcass exactly when the
// reference passes it.
TEST(EventQueueReferenceTest, RandomOpsPopLikeTheReferenceModel) {
  EventQueue queue;
  ReferenceQueue reference;
  Rng rng(20260808);
  std::vector<int> fired;
  // Live events: (queue id, reference key).
  std::vector<std::pair<EventId, ReferenceQueue::Key>> live;
  SimTime now = 0.0;
  std::uint64_t cancels = 0;
  const auto pop = [&] {
    EventQueue::Fired f;
    ASSERT_TRUE(queue.Pop(&f));
    ASSERT_GE(f.when, now);
    now = f.when;
    f.fn();
    ASSERT_EQ(fired.back(), reference.Pop());
    ASSERT_EQ(queue.StaleDiscarded(), reference.Discarded());
  };
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    if (op < 5) {
      // Schedule: a mix of near-future offsets, same-time clusters (25%
      // land exactly on the next integer boundary), long jumps, and the
      // occasional far horizon.
      SimTime when;
      const std::uint64_t shape = rng.NextBounded(8);
      if (shape < 2) {
        when = std::floor(now) + 1.0;  // Same-time cluster at a boundary.
      } else if (shape < 6) {
        when = now + rng.NextDouble() * 300.0;  // Typical think times.
      } else if (shape < 7) {
        when = now + rng.NextDouble() * 5000.0;
      } else {
        when = now + rng.NextDouble() * 3.0e6;  // Far horizon.
      }
      const ReferenceQueue::Key key = reference.Schedule(when);
      const int tag = key.second;
      const EventId id =
          queue.Schedule(when, [&fired, tag] { fired.push_back(tag); });
      live.emplace_back(id, key);
    } else if (op < 7 && !live.empty()) {
      const std::size_t victim = rng.NextBounded(live.size());
      queue.Cancel(live[victim].first);
      reference.Cancel(live[victim].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      ++cancels;
    } else if (!queue.Empty()) {
      pop();
      std::erase_if(live, [&queue](const auto& entry) {
        return !queue.IsPending(entry.first);
      });
    }
    ASSERT_EQ(queue.Size(), reference.Size()) << "step " << step;
    if (HasFatalFailure()) return;
  }
  while (!queue.Empty()) {
    pop();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(reference.Size(), 0U);
  // Every cancelled event left exactly one carcass, and a full drain
  // retires each exactly once.
  EXPECT_EQ(queue.StaleDiscarded(), cancels);
}

TEST(EventQueueReferenceTest, SameTimeFifoTieBreakMatchesTheReferenceModel) {
  // Dense same-time ties with interleaved cancels: the documented FIFO
  // tie-break (schedule order, not slot order) must agree with the
  // reference event-for-event.
  EventQueue queue;
  ReferenceQueue reference;
  std::vector<int> fired;
  for (int round = 0; round < 20; ++round) {
    const SimTime when = static_cast<SimTime>(1 + round % 3);
    std::vector<std::pair<EventId, ReferenceQueue::Key>> doomed;
    for (int i = 0; i < 5; ++i) {
      const ReferenceQueue::Key key = reference.Schedule(when);
      const int tag = key.second;
      doomed.emplace_back(
          queue.Schedule(when, [&fired, tag] { fired.push_back(tag); }), key);
    }
    // Cancel every other one to punch slot-reuse holes.
    for (std::size_t i = 0; i < doomed.size(); i += 2) {
      queue.Cancel(doomed[i].first);
      reference.Cancel(doomed[i].second);
    }
  }
  std::vector<int> expected;
  while (!queue.Empty()) {
    PopAndRun(queue);
    expected.push_back(reference.Pop());
  }
  EXPECT_EQ(reference.Size(), 0U);
  EXPECT_EQ(fired, expected);
}

// ------------------------------------------------ far horizons, carcasses

TEST(EventQueueTest, FarFutureEventsPopInOrder) {
  // Times from half a unit up to 1e300: the 128-bit key orders any
  // nonnegative finite double by its bit pattern, so pop order must be
  // numeric order across the whole range.
  EventQueue queue;
  const double times[] = {0.5,   1.5e9, 1024.0 * 1024.0 + 3.0, 700.0,
                          1e18,  2.5,   1e300,                 1048000.0,
                          3e5,   1e9};
  for (const double t : times) queue.Schedule(t, [] {});
  std::vector<double> sorted(std::begin(times), std::end(times));
  std::sort(sorted.begin(), sorted.end());
  for (const double expected : sorted) {
    EXPECT_EQ(queue.NextTime(), expected);
    EXPECT_EQ(PopTime(queue), expected);
  }
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, StaleEntriesRetiredExactlyOnce) {
  // A cancelled event's carcass stays in the heap until it reaches the
  // root; it must be discarded (and counted) exactly once, then never
  // again — the `obs` kernel counters depend on this.
  EventQueue queue;
  const EventId doomed = queue.Schedule(2000.0, [] {});
  queue.Cancel(doomed);
  EXPECT_EQ(queue.StaleDiscarded(), 0U);  // Retired lazily, not eagerly.
  queue.Schedule(1000.0, [] {});
  queue.Schedule(2100.0, [] {});
  EXPECT_EQ(PopTime(queue), 1000.0);
  EXPECT_EQ(queue.StaleDiscarded(), 0U);  // Not at the root yet.
  EXPECT_EQ(PopTime(queue), 2100.0);      // Sweeps the carcass first.
  EXPECT_EQ(queue.StaleDiscarded(), 1U);
  // The freed slot is reused by a later event.
  queue.Schedule(3024.0, [] {});
  EXPECT_EQ(PopTime(queue), 3024.0);
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.StaleDiscarded(), 1U);  // Not double-counted.
}

// ------------------------------------------- batched periodic spans

TEST(EventQueueTest, PeriodicSpanRequiresSoleTimerStrictlyBeforeBarrier) {
  EventQueue queue;
  CountingHandler handler;
  EventHandler* out_handler = nullptr;
  SimTime barrier = 0.0;
  EXPECT_FALSE(queue.PeriodicSpan(&out_handler, &barrier));  // No timer.

  queue.SchedulePeriodic(1.0, 1.0, &handler);
  ASSERT_TRUE(queue.PeriodicSpan(&out_handler, &barrier));
  EXPECT_EQ(out_handler, &handler);
  EXPECT_EQ(barrier, kTimeNever);  // No one-shots at all.

  // A one-shot strictly after the next occurrence: span holds, barrier is
  // its time.
  const EventId later = queue.Schedule(5.5, [] {});
  ASSERT_TRUE(queue.PeriodicSpan(&out_handler, &barrier));
  EXPECT_EQ(barrier, 5.5);

  // A one-shot tied with the next occurrence: the seq tie-break must go
  // through Pop(), so no span.
  const EventId tie = queue.Schedule(1.0, [] {});
  EXPECT_FALSE(queue.PeriodicSpan(&out_handler, &barrier));
  queue.Cancel(tie);
  ASSERT_TRUE(queue.PeriodicSpan(&out_handler, &barrier));
  EXPECT_EQ(barrier, 5.5);
  queue.Cancel(later);
  ASSERT_TRUE(queue.PeriodicSpan(&out_handler, &barrier));
  EXPECT_EQ(barrier, kTimeNever);
}

TEST(EventQueueTest, MutationEpochTracksLiveSetChanges) {
  EventQueue queue;
  CountingHandler handler;
  const std::uint64_t e0 = queue.MutationEpoch();
  const EventId id = queue.Schedule(1.0, [] {});
  EXPECT_NE(queue.MutationEpoch(), e0);  // Schedule bumps.
  const std::uint64_t e1 = queue.MutationEpoch();
  queue.Cancel(id);
  EXPECT_NE(queue.MutationEpoch(), e1);  // Effective cancel bumps.
  const std::uint64_t e2 = queue.MutationEpoch();
  queue.Cancel(id);                      // Stale cancel: no-op.
  EXPECT_EQ(queue.MutationEpoch(), e2);
  queue.SchedulePeriodic(1.0, 1.0, &handler);
  const std::uint64_t e3 = queue.MutationEpoch();
  EXPECT_NE(e3, e2);
  // Pop + Rearm are the span's own steady state: no bump.
  EventQueue::Fired fired;
  ASSERT_TRUE(queue.Pop(&fired));
  queue.Rearm();
  EXPECT_EQ(queue.MutationEpoch(), e3);
}

}  // namespace
}  // namespace bdisk::sim
