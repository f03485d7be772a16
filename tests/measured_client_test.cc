#include "client/measured_client.h"

#include <gtest/gtest.h>

#include "oracles.h"
#include "sim/simulator.h"

namespace bdisk::client {
namespace {

using broadcast::BroadcastProgram;
using server::BroadcastServer;
using workload::AccessPattern;

// A pattern that always requests the same page makes client behaviour
// fully deterministic.
AccessPattern AlwaysPage(std::size_t db_size, PageId page) {
  std::vector<double> probs(db_size, 0.0);
  probs[page] = 1.0;
  return AccessPattern(probs);
}

TEST(MeasuredClientTest, PushOnlyWaitsForScheduledPage) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.0,
                         10, sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.use_backchannel = false;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  mc.SetRecording(true);
  mc.Start();
  // Deliveries: t=1 page0, t=2 page1, t=3 page2 -> response 3.
  sim.RunUntil(3.5);
  EXPECT_EQ(mc.response_times().Count(), 1U);
  EXPECT_EQ(mc.response_times().Mean(), 3.0);
  EXPECT_TRUE(mc.cache().Contains(2));
  EXPECT_EQ(mc.PullRequestsSent(), 0U);
}

TEST(MeasuredClientTest, CacheHitCostsZeroAndCounts) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.0,
                         10, sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.use_backchannel = false;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  mc.SetRecording(true);
  mc.Start();
  // Retrieval at t=3, think 5 -> hits at t=8, 13, 18 (all cached).
  sim.RunUntil(20.0);
  EXPECT_EQ(mc.response_times().Count(), 4U);
  EXPECT_EQ(mc.response_times().Min(), 0.0);
  EXPECT_EQ(mc.response_times().Max(), 3.0);
  EXPECT_EQ(mc.CacheHits(), 3U);
  EXPECT_DOUBLE_EQ(mc.response_times().Mean(), 0.75);
}

TEST(MeasuredClientTest, PurePullResponseIsAboutTwoUnits) {
  // The paper's lightly loaded Pure-Pull floor: request at t, service in
  // slot [t+1, t+2), delivery at t+2.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 4)), 1.0, 10,
                         sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.policy = cache::PolicyKind::kP;
  options.use_backchannel = true;
  options.retry_interval = 100.0;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  mc.SetRecording(true);
  mc.Start();
  sim.RunUntil(3.0);
  EXPECT_EQ(mc.response_times().Count(), 1U);
  EXPECT_EQ(mc.response_times().Mean(), 2.0);
  EXPECT_EQ(mc.PullRequestsSent(), 1U);
}

TEST(MeasuredClientTest, ThresholdSuppressesNearbyPulls) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.thres_perc = 0.5;  // 2 slots.
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  mc.Start();
  // Page 2 is 1 push-slot away (cursor already past slot 0): within the
  // threshold, so no pull request goes out.
  sim.RunUntil(4.0);
  EXPECT_EQ(mc.PullRequestsSent(), 0U);
  EXPECT_FALSE(mc.IsWaiting());  // Served by the push schedule anyway.
}

TEST(MeasuredClientTest, ZeroThresholdPullsDistantPage) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.thres_perc = 0.0;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  mc.Start();
  EXPECT_EQ(mc.PullRequestsSent(), 1U);
}

TEST(MeasuredClientTest, SnoopsPagesPulledByOthers) {
  sim::Simulator sim;
  // Pure pull; MC has no way to get page 2 by push.
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 4)), 1.0, 1,
                         sim::Rng(1));
  // Fill the queue with page 2 "from another client" BEFORE the MC asks;
  // the MC's own request coalesces, and the snooped response serves it.
  server.SubmitRequest(2);
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.policy = cache::PolicyKind::kP;
  options.retry_interval = 100.0;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  mc.SetRecording(true);
  mc.Start();
  sim.RunUntil(3.0);
  EXPECT_EQ(mc.response_times().Count(), 1U);
  EXPECT_EQ(server.queue().CoalescedCount(), 1U);
}

TEST(MeasuredClientTest, RetriesDroppedRequestForUnscheduledPage) {
  sim::Simulator sim;
  // Queue capacity 1, already full of page 3: MC's request is dropped.
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1}, 4)), 0.5, 1,
                         sim::Rng(1));
  server.SubmitRequest(3);
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.retry_interval = 10.0;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  mc.SetRecording(true);
  mc.Start();
  EXPECT_EQ(server.queue().DroppedCount(), 1U);
  sim.RunUntil(100.0);
  // The retry at t=10 (or a later one) eventually lands and is served.
  EXPECT_GE(mc.RetriesSent(), 1U);
  ASSERT_GE(mc.response_times().Count(), 1U);
  EXPECT_GE(mc.response_times().Max(), 10.0);
  EXPECT_TRUE(mc.cache().Contains(2));
}

TEST(MeasuredClientTest, WarmupTrackerWiredThroughCache) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.0,
                         10, sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 1.0;
  options.use_backchannel = false;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2),
                    std::vector<PageId>{2, 3});
  ASSERT_NE(mc.warmup_tracker(), nullptr);
  mc.Start();
  sim.RunUntil(4.0);  // Page 2 arrives at t=3.
  EXPECT_DOUBLE_EQ(mc.warmup_tracker()->Fraction(), 0.5);
  EXPECT_EQ(mc.warmup_tracker()->TimeToFraction(0.5), 3.0);
}

TEST(MeasuredClientTest, OnAccessCompleteCallbackFires) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.0,
                         10, sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.use_backchannel = false;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  std::vector<double> seen;
  mc.SetOnAccessComplete([&](double rt) { seen.push_back(rt); });
  mc.Start();
  sim.RunUntil(9.0);  // Retrieval at 3, hit at 8.
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], 3.0);
  EXPECT_EQ(seen[1], 0.0);
}

TEST(MeasuredClientTest, PullWaitRatioLowWhenPullsAreFast) {
  // Pulls served in ~2 units against a 4-slot push gap: ratio well < 1.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 1.0,
                         10, sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 1;
  options.think_time = 5.0;
  options.thres_perc = 0.0;
  // Alternate between two pages so each access misses (cache of 1).
  MeasuredClient mc(&sim, &server,
                    workload::AccessPattern({0.0, 0.0, 0.5, 0.5}), options,
                    sim::Rng(2));
  mc.Start();
  EXPECT_EQ(mc.PullWaitRatio(), 0.0);  // No completed pull yet.
  sim.RunUntil(500.0);
  EXPECT_GT(mc.PullWaitRatio(), 0.0);
  EXPECT_LT(mc.PullWaitRatio(), 0.9);
}

TEST(MeasuredClientTest, PullWaitRatioHighWhenRequestsDrop) {
  // A queue permanently jammed by an unserviceable competing load: the
  // MC's pulls drop and it always ends up waiting for the push.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 8)), 0.01,
                         1, sim::Rng(1));
  server.SubmitRequest(7);  // Fills the 1-slot queue; pull_bw=1% barely
                            // ever serves it, so MC requests drop.
  MeasuredClientOptions options;
  options.cache_size = 1;
  // Non-integer think time keeps requests off slot boundaries; with a
  // 4-page cycle, boundary-coincident requests otherwise get "free"
  // deliveries that bias the ratio low (negligible at realistic cycle
  // lengths).
  options.think_time = 5.3;
  options.thres_perc = 0.0;
  MeasuredClient mc(
      &sim, &server,
      workload::AccessPattern({0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0}),
      options, sim::Rng(2));
  mc.Start();
  sim.RunUntil(2000.0);
  EXPECT_GT(mc.PullWaitRatio(), 0.8);
}

TEST(MeasuredClientTest, SetThresPercTakesEffect) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.thres_perc = 0.0;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  mc.SetThresPerc(1.0);  // Full-cycle threshold: never pull.
  EXPECT_EQ(mc.thres_perc(), 1.0);
  mc.Start();
  sim.RunUntil(10.0);
  EXPECT_EQ(mc.PullRequestsSent(), 0U);
}

TEST(MeasuredClientDeathTest, PushOnlyCannotRequestUnscheduledPage) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1}, 4)), 0.0, 10,
                         sim::Rng(1));
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.use_backchannel = false;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  EXPECT_DEATH(mc.Start(), "never pushed");
}

}  // namespace
}  // namespace bdisk::client
