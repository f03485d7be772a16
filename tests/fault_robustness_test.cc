// Client retry/timeout/backoff engine and server degraded-mode/outage
// behaviour, pinned at the unit level with scripted servers and injectors:
// exact timeout arithmetic (jitter off), the backoff cap, deterministic
// jitter per stream, abandon vs. fallback, dead-backchannel declaration and
// snoop revival, shed hysteresis, and outage blackout/brownout slots.

#include <gtest/gtest.h>

#include "client/measured_client.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "oracles.h"
#include "server/broadcast_server.h"
#include "sim/simulator.h"

namespace bdisk::client {
namespace {

using broadcast::BroadcastProgram;
using fault::FaultInjector;
using fault::FaultPlan;
using server::BroadcastServer;
using server::SubmitResult;
using workload::AccessPattern;

AccessPattern AlwaysPage(std::size_t db_size, PageId page) {
  std::vector<double> probs(db_size, 0.0);
  probs[page] = 1.0;
  return AccessPattern(probs);
}

FaultInjector LossyBackchannel() {
  FaultPlan plan;
  plan.request_loss = 1.0;
  return FaultInjector(plan, sim::Rng(42));
}

MeasuredClientOptions PullOptions() {
  MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 5.0;
  options.policy = cache::PolicyKind::kP;
  options.use_backchannel = true;
  return options;
}

TEST(RobustClientTest, TimeoutsBackOffExponentiallyThenAbandon) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 4)), 1.0, 10,
                         sim::Rng(1));
  FaultInjector injector = LossyBackchannel();
  server.SetFaultInjector(&injector);

  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), PullOptions(),
                    sim::Rng(2));
  RobustPullOptions robust;
  robust.timeout = 10.0;
  robust.max_retries = 2;
  robust.backoff = 2.0;
  robust.backoff_cap = 100.0;
  robust.jitter = 0.0;
  robust.dead_threshold = 0;  // Never declare the backchannel dead.
  robust.probe_interval = 100.0;
  mc.EnableRobustness(robust, sim::Rng(5));
  mc.SetRecording(true);
  mc.Start();

  // Every pull is lost: timeouts at t=10, 10+20=30, 30+40=70; the third
  // exhausts the retry budget and the unscheduled request is abandoned
  // with the elapsed 70 units as its explicit-timeout response.
  sim.RunUntil(74.0);
  EXPECT_EQ(mc.TimeoutsFired(), 3U);
  EXPECT_EQ(mc.RetriesSent(), 2U);
  EXPECT_EQ(mc.Abandoned(), 1U);
  EXPECT_EQ(mc.Fallbacks(), 0U);
  ASSERT_EQ(mc.response_times().Count(), 1U);
  EXPECT_EQ(mc.response_times().Mean(), 70.0);
  EXPECT_EQ(injector.RequestsLost(), 3U);
}

TEST(RobustClientTest, BackoffCapBoundsEveryArmedTimeout) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 4)), 1.0, 10,
                         sim::Rng(1));
  FaultInjector injector = LossyBackchannel();
  server.SetFaultInjector(&injector);

  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), PullOptions(),
                    sim::Rng(2));
  RobustPullOptions robust;
  robust.timeout = 10.0;
  robust.max_retries = 3;
  robust.backoff = 10.0;  // Uncapped would arm 10, 100, 1000, 10000.
  robust.backoff_cap = 25.0;
  robust.jitter = 0.0;
  robust.dead_threshold = 0;
  robust.probe_interval = 100.0;
  mc.EnableRobustness(robust, sim::Rng(5));
  mc.SetRecording(true);
  mc.Start();

  // Capped arms: 10, 25, 25, 25 -> abandon at t=85.
  sim.RunUntil(89.0);
  EXPECT_EQ(mc.TimeoutsFired(), 4U);
  ASSERT_EQ(mc.response_times().Count(), 1U);
  EXPECT_EQ(mc.response_times().Mean(), 85.0);
}

TEST(RobustClientTest, JitterIsDeterministicPerRetryStream) {
  const auto run_once = [](std::uint64_t retry_seed) {
    sim::Simulator sim;
    BroadcastServer server(&sim, Share(BroadcastProgram({}, 4)), 1.0, 10,
                           sim::Rng(1));
    FaultInjector injector = LossyBackchannel();
    server.SetFaultInjector(&injector);
    MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), PullOptions(),
                      sim::Rng(2));
    RobustPullOptions robust;
    robust.timeout = 10.0;
    robust.max_retries = 2;
    robust.backoff = 2.0;
    robust.backoff_cap = 100.0;
    robust.jitter = 0.5;
    robust.dead_threshold = 0;
    robust.probe_interval = 100.0;
    mc.EnableRobustness(robust, sim::Rng(retry_seed));
    mc.SetRecording(true);
    mc.Start();
    sim.RunUntil(200.0);
    return mc.response_times().Mean();
  };
  const double a = run_once(5);
  const double b = run_once(5);
  const double c = run_once(6);
  EXPECT_EQ(a, b);  // Same retry stream: bit-identical schedule.
  EXPECT_NE(a, c);  // Different stream: jitter actually moved the timers.
  // Jitter only ever stretches: the jittered abandon lands after the
  // jitter-free 70 and within the +50% bound.
  EXPECT_GT(a, 70.0);
  EXPECT_LT(a, 105.0);
}

TEST(RobustClientTest, DeliveryCancelsTheTimeoutForGood) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 4)), 1.0, 10,
                         sim::Rng(1));  // Healthy backchannel.
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), PullOptions(),
                    sim::Rng(2));
  RobustPullOptions robust;
  robust.timeout = 10.0;
  robust.jitter = 0.0;
  robust.backoff_cap = 80.0;
  robust.probe_interval = 100.0;
  mc.EnableRobustness(robust, sim::Rng(5));
  mc.SetRecording(true);
  mc.Start();

  // The pull is served at t=2, well before the t=10 timeout; no timeout
  // may ever fire afterwards (the access completes, later ones are hits).
  sim.RunUntil(50.0);
  EXPECT_GE(mc.response_times().Count(), 2U);
  EXPECT_EQ(mc.response_times().Max(), 2.0);
  EXPECT_EQ(mc.TimeoutsFired(), 0U);
  EXPECT_EQ(mc.Abandoned(), 0U);
}

TEST(RobustClientTest, ScheduledPageFallsBackToTheBroadcast) {
  sim::Simulator sim;
  // Page 2 is on the schedule (delivered at t=3), but the backchannel is
  // dead to the world; with a sub-slot timeout the retry budget burns out
  // first and the client falls back to waiting on the push.
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  FaultInjector injector = LossyBackchannel();
  server.SetFaultInjector(&injector);

  MeasuredClientOptions options = PullOptions();
  options.policy = cache::PolicyKind::kPix;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  RobustPullOptions robust;
  robust.timeout = 0.25;
  robust.max_retries = 1;
  robust.backoff = 1.0;
  robust.backoff_cap = 0.25;
  robust.jitter = 0.0;
  robust.dead_threshold = 0;
  robust.probe_interval = 100.0;
  mc.EnableRobustness(robust, sim::Rng(5));
  mc.SetRecording(true);
  mc.Start();

  sim.RunUntil(4.0);
  EXPECT_EQ(mc.TimeoutsFired(), 2U);
  EXPECT_EQ(mc.Fallbacks(), 1U);
  EXPECT_EQ(mc.Abandoned(), 0U);
  // The push slot serves the fallen-back request: response is the full
  // 3-unit broadcast wait, not a timeout artifact.
  ASSERT_EQ(mc.response_times().Count(), 1U);
  EXPECT_EQ(mc.response_times().Mean(), 3.0);
}

TEST(RobustClientTest, DeadBackchannelIsDeclaredAndRevivedBySnoop) {
  sim::Simulator sim;
  // Page 4 is unscheduled: pulls are its only path, so every fully-failed
  // request is a consecutive backchannel failure.
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 6)), 1.0,
                         10, sim::Rng(1));
  FaultInjector injector = LossyBackchannel();
  server.SetFaultInjector(&injector);

  MeasuredClientOptions options = PullOptions();
  MeasuredClient mc(&sim, &server, AlwaysPage(6, 4), options, sim::Rng(2));
  RobustPullOptions robust;
  robust.timeout = 2.0;
  robust.max_retries = 0;
  robust.backoff = 1.0;
  robust.backoff_cap = 2.0;
  robust.jitter = 0.0;
  robust.dead_threshold = 2;
  robust.probe_interval = 50.0;
  mc.EnableRobustness(robust, sim::Rng(5));
  mc.SetRecording(true);
  mc.Start();

  // t=0 request 1 (lost, abandoned at 2); t=7 request 2 (lost, abandoned
  // at 9) -> two consecutive failures, backchannel declared dead.
  sim.RunUntil(10.0);
  EXPECT_TRUE(mc.BackchannelDead());
  EXPECT_EQ(mc.BackchannelDeaths(), 1U);
  EXPECT_EQ(mc.Abandoned(), 2U);

  // While dead, unscheduled pages still probe (pull is their only path).
  sim.RunUntil(15.0);  // t=14: request 3 probes, is lost, abandons at 16.
  EXPECT_GE(mc.ProbesSent(), 1U);

  // Heal the channel mid-run; the next probe reaches the queue, the pull
  // slot answers, and snooping that pull-kind delivery revives the
  // backchannel. The clock rests at 15, so this fires at t=17.
  sim.ScheduleAfter(2.0, [&server] { server.SetFaultInjector(nullptr); });
  sim.RunUntil(30.0);
  EXPECT_FALSE(mc.BackchannelDead());
  EXPECT_EQ(mc.BackchannelRecoveries(), 1U);
}

TEST(RobustClientTest, BackoffCapHitExactlyAtTheBoundaryAttempt) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 4)), 1.0, 10,
                         sim::Rng(1));
  FaultInjector injector = LossyBackchannel();
  server.SetFaultInjector(&injector);

  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), PullOptions(),
                    sim::Rng(2));
  RobustPullOptions robust;
  robust.timeout = 10.0;
  robust.max_retries = 3;
  robust.backoff = 2.0;
  robust.backoff_cap = 40.0;  // == timeout * backoff^2: attempt 2 reaches
                              // the cap by arithmetic, attempt 3 by clamp.
  robust.jitter = 0.0;
  robust.dead_threshold = 0;
  robust.probe_interval = 100.0;
  mc.EnableRobustness(robust, sim::Rng(5));
  mc.SetRecording(true);
  mc.Start();

  // Armed delays 10, 20, 40, 40: the boundary attempt and the clamped one
  // are identical (exact doubling in binary floating point, no epsilon).
  // Timeouts fire at 10, 30, 70, 110; the unscheduled request abandons at
  // 110 with the elapsed time as its explicit-timeout response.
  sim.RunUntil(114.0);
  EXPECT_EQ(mc.TimeoutsFired(), 4U);
  EXPECT_EQ(mc.RetriesSent(), 3U);
  EXPECT_EQ(mc.Abandoned(), 1U);
  ASSERT_EQ(mc.response_times().Count(), 1U);
  EXPECT_EQ(mc.response_times().Mean(), 110.0);
}

TEST(RobustClientTest, SnoopedPushDeliveryCancelsAnArmedRetransmit) {
  sim::Simulator sim;
  // Page 2 rides the push schedule (delivered at t=3) while the
  // backchannel eats every pull. The race under test: a retransmit has
  // already been sent and its follow-up timer is armed for t=5 when the
  // snooped push delivery lands at t=3 — the delivery must win, cancel
  // the timer, and no later timeout may fire for the completed request.
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  FaultInjector injector = LossyBackchannel();
  server.SetFaultInjector(&injector);

  MeasuredClientOptions options = PullOptions();
  options.policy = cache::PolicyKind::kPix;
  MeasuredClient mc(&sim, &server, AlwaysPage(4, 2), options, sim::Rng(2));
  RobustPullOptions robust;
  robust.timeout = 2.5;
  robust.max_retries = 5;
  robust.backoff = 1.0;
  robust.backoff_cap = 2.5;
  robust.jitter = 0.0;
  robust.dead_threshold = 0;
  robust.probe_interval = 100.0;
  mc.EnableRobustness(robust, sim::Rng(5));
  mc.SetRecording(true);
  mc.Start();

  // t=0 pull (lost); t=2.5 timeout, retransmit (lost), timer re-armed for
  // t=5; t=3 the push slot delivers page 2 first.
  sim.RunUntil(20.0);
  EXPECT_EQ(mc.TimeoutsFired(), 1U);
  EXPECT_EQ(mc.RetriesSent(), 1U);
  EXPECT_EQ(mc.Abandoned(), 0U);
  EXPECT_EQ(mc.Fallbacks(), 0U);
  EXPECT_GE(mc.response_times().Count(), 1U);
  EXPECT_EQ(mc.response_times().Max(), 3.0);
}

}  // namespace
}  // namespace bdisk::client

namespace bdisk::server {
namespace {

using broadcast::BroadcastProgram;
using fault::FaultInjector;
using fault::FaultPlan;

TEST(DegradedModeTest, HysteresisEntersHighExitsLow) {
  sim::Simulator sim;
  std::vector<PageId> schedule(10);
  for (PageId p = 0; p < 10; ++p) schedule[p] = p;
  BroadcastServer server(&sim, Share(BroadcastProgram(std::move(schedule), 20)),
                         1.0, 10, sim::Rng(1));
  FaultPlan plan;
  plan.shed_hi = 0.5;  // Enter at depth 5; exit at 2 (auto lo = 0.25).
  FaultInjector injector(plan, sim::Rng(2));
  server.SetFaultInjector(&injector);

  // Unscheduled pages (>= 10) are never shed; five of them cross the
  // enter watermark.
  for (PageId p = 10; p < 14; ++p) {
    EXPECT_EQ(server.SubmitRequest(p), SubmitResult::kAccepted);
    EXPECT_FALSE(server.InDegradedMode());
  }
  EXPECT_EQ(server.SubmitRequest(14), SubmitResult::kAccepted);
  EXPECT_TRUE(server.InDegradedMode());
  EXPECT_EQ(server.DegradedEnters(), 1U);

  // Degraded: a scheduled page (push safety net within the cycle) sheds;
  // an unscheduled one is still admitted.
  EXPECT_EQ(server.SubmitRequest(0), SubmitResult::kShedOverload);
  EXPECT_EQ(server.queue().ShedCount(), 1U);
  EXPECT_EQ(server.SubmitRequest(15), SubmitResult::kAccepted);

  // pull_bw = 1 drains one page per slot: depth 6 -> 2 after 4 slots,
  // crossing the exit watermark.
  sim.RunUntil(5.0);
  EXPECT_FALSE(server.InDegradedMode());
  EXPECT_EQ(server.DegradedExits(), 1U);
  // Healthy again: the same scheduled page is admitted.
  EXPECT_EQ(server.SubmitRequest(0), SubmitResult::kAccepted);
  EXPECT_EQ(server.queue().ShedCount(), 1U);
}

TEST(OutageTest, BlackoutIdlesSlotsAndDropsArrivals) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 6)), 0.0,
                         10, sim::Rng(1));
  FaultPlan plan;
  plan.outage_start = 10.0;
  plan.outage_duration = 5.0;
  FaultInjector injector(plan, sim::Rng(2));
  server.SetFaultInjector(&injector);

  sim.ScheduleAfter(12.5, [&server] { server.SubmitRequest(4); });
  sim.RunUntil(20.0);
  EXPECT_EQ(server.OutagesStarted(), 1U);
  EXPECT_EQ(server.OutageSlots(), 5U);
  EXPECT_EQ(server.IdleSlots(), 5U);  // Blackout slots are the only idles.
  EXPECT_EQ(server.queue().OutageDropCount(), 1U);
  EXPECT_EQ(server.queue().AcceptedCount(), 0U);
}

TEST(OutageTest, BrownoutKeepsPushingButSuspendsPull) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 6)), 1.0,
                         10, sim::Rng(1));
  FaultPlan plan;
  plan.outage_start = 10.0;
  plan.outage_duration = 5.0;
  plan.brownout = true;
  FaultInjector injector(plan, sim::Rng(2));
  server.SetFaultInjector(&injector);

  // Two pulls queued just before the window: a healthy server would serve
  // them at t=10 and t=11; the brownout pushes through the window instead
  // and serves them the moment it lifts.
  sim.ScheduleAfter(9.5, [&server] {
    server.SubmitRequest(4);
    server.SubmitRequest(5);
  });
  sim.RunUntil(20.0);
  EXPECT_EQ(server.OutageSlots(), 5U);
  EXPECT_EQ(server.IdleSlots(), 0U);  // Never idle: the schedule runs on.
  EXPECT_EQ(server.PullSlots(), 2U);
  EXPECT_TRUE(server.queue().Empty());
}

}  // namespace
}  // namespace bdisk::server
