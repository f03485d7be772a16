#include "server/broadcast_server.h"

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "oracles.h"
#include "sim/simulator.h"

namespace bdisk::server {
namespace {

using broadcast::BroadcastProgram;

// Records every delivery for inspection.
class RecordingListener : public BroadcastListener {
 public:
  struct Delivery {
    PageId page;
    SlotKind kind;
    sim::SimTime time;
  };
  void OnBroadcast(PageId page, SlotKind kind, sim::SimTime now) override {
    deliveries.push_back({page, kind, now});
  }
  std::vector<Delivery> deliveries;
};

TEST(BroadcastServerTest, PurePushFollowsTheSchedule) {
  sim::Simulator sim;
  BroadcastProgram program({0, 1, 2}, 3);
  BroadcastServer server(&sim, Share(std::move(program)), /*pull_bw=*/0.0,
                         /*queue_capacity=*/10, sim::Rng(1));
  RecordingListener listener;
  server.AddListener(&listener);

  sim.RunUntil(6.0);
  ASSERT_EQ(listener.deliveries.size(), 6U);
  const PageId expected[] = {0, 1, 2, 0, 1, 2};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(listener.deliveries[i].page, expected[i]) << i;
    EXPECT_EQ(listener.deliveries[i].kind, SlotKind::kPush);
    EXPECT_EQ(listener.deliveries[i].time, static_cast<double>(i + 1));
  }
  EXPECT_EQ(server.PushSlots(), 7U);  // 6 delivered + 1 in flight.
  EXPECT_EQ(server.PullSlots(), 0U);
}

TEST(BroadcastServerTest, DeliveryHappensOneUnitAfterSlotChoice) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({5}, 6)), 0.0, 10,
                         sim::Rng(1));
  RecordingListener listener;
  server.AddListener(&listener);
  sim.RunUntil(1.0);
  ASSERT_EQ(listener.deliveries.size(), 1U);
  EXPECT_EQ(listener.deliveries[0].time, 1.0);
}

TEST(BroadcastServerTest, PurePullServesQueueFifo) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 10)), /*pull_bw=*/1.0,
                         10, sim::Rng(2));
  RecordingListener listener;
  server.AddListener(&listener);

  server.SubmitRequest(7);
  server.SubmitRequest(3);
  sim.RunUntil(5.0);
  ASSERT_EQ(listener.deliveries.size(), 2U);
  EXPECT_EQ(listener.deliveries[0].page, 7U);
  EXPECT_EQ(listener.deliveries[0].kind, SlotKind::kPull);
  EXPECT_EQ(listener.deliveries[1].page, 3U);
  EXPECT_GT(server.IdleSlots(), 0U);  // Queue drained -> idle slots.
}

TEST(BroadcastServerTest, PurePullIdlesWhenQueueEmpty) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 10)), 1.0, 10,
                         sim::Rng(3));
  RecordingListener listener;
  server.AddListener(&listener);
  sim.RunUntil(10.0);
  EXPECT_TRUE(listener.deliveries.empty());
  EXPECT_EQ(server.PushSlots(), 0U);
  EXPECT_GE(server.IdleSlots(), 10U);
}

TEST(BroadcastServerTest, UnusedPullSlotsGoBackToPush) {
  // IPP with PullBW=100% but an empty queue: the schedule continues — the
  // paper's "unused pull slots are given back to the push program".
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1}, 2)), 1.0, 10,
                         sim::Rng(4));
  RecordingListener listener;
  server.AddListener(&listener);
  sim.RunUntil(4.0);
  ASSERT_EQ(listener.deliveries.size(), 4U);
  for (const auto& d : listener.deliveries) {
    EXPECT_EQ(d.kind, SlotKind::kPush);
  }
}

TEST(BroadcastServerTest, IppInterleavesPullAndPushByCoin) {
  // PullBW = 1 with a non-empty queue: the queued page preempts the
  // schedule exactly once, then the schedule resumes where it left off.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2}, 4)), 1.0, 10,
                         sim::Rng(5));
  RecordingListener listener;
  server.AddListener(&listener);

  // The boundary at t=1 delivered page 0 and already chose page 1 for slot
  // [1,2) before this request lands; the pull wins the slot chosen at t=2.
  sim.RunUntil(1.0);
  server.SubmitRequest(3);
  sim.RunUntil(4.0);
  ASSERT_EQ(listener.deliveries.size(), 4U);
  EXPECT_EQ(listener.deliveries[0].page, 0U);
  EXPECT_EQ(listener.deliveries[1].page, 1U);
  EXPECT_EQ(listener.deliveries[2].page, 3U);  // Pull preempts.
  EXPECT_EQ(listener.deliveries[2].kind, SlotKind::kPull);
  EXPECT_EQ(listener.deliveries[3].page, 2U);  // Schedule resumes.
}

TEST(BroadcastServerTest, PullBwFractionControlsServiceShare) {
  // Keep the queue always full; with PullBW=0.3 about 30% of slots serve
  // pulls.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 100)), 0.3,
                         100, sim::Rng(6));
  RecordingListener listener;
  server.AddListener(&listener);
  PageId next = 4;
  // Refill the queue each unit.
  std::function<void()> refill = [&] {
    while (server.queue().Size() < 50) {
      server.SubmitRequest(next);
      next = 4 + (next - 4 + 1) % 90;
    }
    sim.ScheduleAfter(1.0, [&refill] { refill(); });
  };
  sim.ScheduleAfter(0.0, [&refill] { refill(); });
  sim.RunUntil(10000.0);
  const double pull_frac =
      static_cast<double>(server.PullSlots()) /
      static_cast<double>(server.PullSlots() + server.PushSlots());
  EXPECT_NEAR(pull_frac, 0.3, 0.02);
}

TEST(BroadcastServerTest, SchedulePositionAndDistanceTrackPushOnly) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 1.0,
                         10, sim::Rng(7));
  // At construction the server chose slot 0 contents; position is 1.
  EXPECT_EQ(server.SchedulePosition(), 1U);
  EXPECT_EQ(server.DistanceToNextPush(1), 0U);
  EXPECT_EQ(server.DistanceToNextPush(0), 3U);
  // A pull slot must NOT advance the schedule position.
  server.SubmitRequest(3);
  sim.RunUntil(1.0);  // Chooses slot [1,2): the pull of page 3.
  EXPECT_EQ(server.SchedulePosition(), 1U);
}

TEST(BroadcastServerTest, PaddingSlotsDeliverNothing) {
  sim::Simulator sim;
  BroadcastServer server(&sim,
                         Share(BroadcastProgram({0, broadcast::kNoPage, 1}, 2)),
                         0.0, 10, sim::Rng(8));
  RecordingListener listener;
  server.AddListener(&listener);
  sim.RunUntil(3.0);
  ASSERT_EQ(listener.deliveries.size(), 2U);
  EXPECT_EQ(listener.deliveries[0].page, 0U);
  EXPECT_EQ(listener.deliveries[1].page, 1U);
  EXPECT_EQ(server.IdleSlots(), 1U);
}

TEST(BroadcastServerTest, MultipleListenersAllNotified) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0}, 1)), 0.0, 10,
                         sim::Rng(9));
  RecordingListener a, b;
  server.AddListener(&a);
  server.AddListener(&b);
  sim.RunUntil(2.0);
  EXPECT_EQ(a.deliveries.size(), 2U);
  EXPECT_EQ(b.deliveries.size(), 2U);
}

TEST(BroadcastServerTest, SetPullBwRetunesTheMux) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 100)), 0.0,
                         100, sim::Rng(6));
  EXPECT_EQ(server.pull_bw(), 0.0);
  // With PullBW 0, queued requests are never served.
  server.SubmitRequest(50);
  sim.RunUntil(100.0);
  EXPECT_EQ(server.PullSlots(), 0U);
  // Raise it: the queued request goes out.
  server.SetPullBw(1.0);
  sim.RunUntil(105.0);
  EXPECT_EQ(server.PullSlots(), 1U);
}

TEST(BroadcastServerDeathTest, SetPullBwRejectsBadValues) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0}, 1)), 0.5, 10,
                         sim::Rng(1));
  EXPECT_DEATH(server.SetPullBw(-0.1), "PullBW");
  EXPECT_DEATH(server.SetPullBw(1.1), "PullBW");
}

TEST(BroadcastServerDeathTest, RejectsNoProgramNoPull) {
  sim::Simulator sim;
  EXPECT_DEATH(BroadcastServer(&sim, Share(BroadcastProgram({}, 10)), 0.0, 10,
                               sim::Rng(1)),
               "never broadcast");
}

TEST(BroadcastServerDeathTest, RejectsBadPullBw) {
  sim::Simulator sim;
  EXPECT_DEATH(BroadcastServer(&sim, Share(BroadcastProgram({0}, 1)), 1.5, 10,
                               sim::Rng(1)),
               "PullBW");
}

}  // namespace
}  // namespace bdisk::server
