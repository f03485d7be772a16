// System-level fault-injection pins: determinism (same seed + same plan =>
// bit-identical RunResult), the fusion invariant under faults, the forced
// unfused path for request delay, injection-rate sanity, and the queue
// accounting equation. The complementary zero-perturbation guarantee — a
// default (disabled) FaultPlan leaves every trajectory bit-identical to
// the pre-fault baseline — is pinned by golden_test's seed-424242 pins and
// the committed tools/baseline snapshot, which this PR must not move.

#include <string>

#include <gtest/gtest.h>

#include "core/config_io.h"
#include "core/system.h"
#include "fault/fault_plan.h"

namespace bdisk {
namespace {

core::SteadyStateProtocol QuickProtocol() {
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 100;
  protocol.min_measured_accesses = 500;
  protocol.max_measured_accesses = 1500;
  protocol.batch_size = 250;
  protocol.tolerance = 0.1;
  return protocol;
}

core::SystemConfig SmallLoadedConfig() {
  core::SystemConfig config;
  config.mode = core::DeliveryMode::kIpp;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 50.0;
  config.pull_bw = 0.5;
  config.seed = 20260806;
  return config;
}

// Field-by-field bit-equality over everything a fault plan can touch.
void ExpectIdenticalResults(const core::RunResult& a,
                            const core::RunResult& b) {
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.response_stats.Count(), b.response_stats.Count());
  EXPECT_EQ(a.response_stats.Variance(), b.response_stats.Variance());
  EXPECT_EQ(a.response_p99, b.response_p99);
  EXPECT_EQ(a.mc_accesses, b.mc_accesses);
  EXPECT_EQ(a.mc_hit_rate, b.mc_hit_rate);
  EXPECT_EQ(a.mc_pulls_sent, b.mc_pulls_sent);
  EXPECT_EQ(a.mc_retries_sent, b.mc_retries_sent);
  EXPECT_EQ(a.vc_requests_generated, b.vc_requests_generated);
  EXPECT_EQ(a.vc_submitted, b.vc_submitted);
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_accepted, b.requests_accepted);
  EXPECT_EQ(a.requests_coalesced, b.requests_coalesced);
  EXPECT_EQ(a.requests_dropped, b.requests_dropped);
  EXPECT_EQ(a.requests_shed, b.requests_shed);
  EXPECT_EQ(a.requests_dropped_outage, b.requests_dropped_outage);
  EXPECT_EQ(a.fault_slots_lost, b.fault_slots_lost);
  EXPECT_EQ(a.fault_slots_corrupted, b.fault_slots_corrupted);
  EXPECT_EQ(a.fault_requests_lost, b.fault_requests_lost);
  EXPECT_EQ(a.fault_requests_delayed, b.fault_requests_delayed);
  EXPECT_EQ(a.outage_slots, b.outage_slots);
  EXPECT_EQ(a.outages_started, b.outages_started);
  EXPECT_EQ(a.degraded_enters, b.degraded_enters);
  EXPECT_EQ(a.degraded_exits, b.degraded_exits);
  EXPECT_EQ(a.mc_timeouts_fired, b.mc_timeouts_fired);
  EXPECT_EQ(a.mc_abandoned, b.mc_abandoned);
  EXPECT_EQ(a.mc_fallbacks, b.mc_fallbacks);
  EXPECT_EQ(a.mc_probes_sent, b.mc_probes_sent);
  EXPECT_EQ(a.mc_backchannel_deaths, b.mc_backchannel_deaths);
  EXPECT_EQ(a.mc_backchannel_recoveries, b.mc_backchannel_recoveries);
  EXPECT_EQ(a.push_slot_frac, b.push_slot_frac);
  EXPECT_EQ(a.pull_slot_frac, b.pull_slot_frac);
  EXPECT_EQ(a.idle_slot_frac, b.idle_slot_frac);
  EXPECT_EQ(a.sim_time_end, b.sim_time_end);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(FaultInjectionTest, SameSeedAndPlanIsBitIdentical) {
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.1;
  config.fault.slot_corruption = 0.05;
  config.fault.request_loss = 0.1;
  config.fault.outage_start = 200.0;
  config.fault.outage_duration = 50.0;
  config.fault.outage_period = 1000.0;
  config.fault.shed_hi = 0.8;

  core::System first(config);
  const core::RunResult a = first.RunSteadyState(QuickProtocol());
  core::System second(config);
  const core::RunResult b = second.RunSteadyState(QuickProtocol());
  ExpectIdenticalResults(a, b);
  // The plan actually injected; identical zeros would be a vacuous pass.
  EXPECT_GT(a.fault_slots_lost, 0U);
  EXPECT_GT(a.fault_requests_lost, 0U);
  EXPECT_GT(a.outage_slots, 0U);
}

TEST(FaultInjectionTest, DifferentSeedsInjectDifferently) {
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.1;
  core::System first(config);
  const core::RunResult a = first.RunSteadyState(QuickProtocol());
  config.seed += 1;
  core::System second(config);
  const core::RunResult b = second.RunSteadyState(QuickProtocol());
  // Same rates, different draws: the tallies should not line up exactly.
  EXPECT_NE(a.fault_slots_lost, b.fault_slots_lost);
}

TEST(FaultInjectionTest, FusedMatchesUnfusedUnderFaults) {
  // The injector judges slots and requests in arrival order, which the
  // fused VC path preserves; losses must not break the fusion invariant.
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.1;
  config.fault.request_loss = 0.15;
  config.fault.shed_hi = 0.8;

  config.vc_fusion = true;
  core::System fused_system(config);
  const core::RunResult fused = fused_system.RunSteadyState(QuickProtocol());
  config.vc_fusion = false;
  core::System unfused_system(config);
  const core::RunResult unfused =
      unfused_system.RunSteadyState(QuickProtocol());
  ExpectIdenticalResults(fused, unfused);
  EXPECT_GT(fused.kernel.lazy_arrivals_fused, 0U);
  EXPECT_EQ(unfused.kernel.lazy_arrivals_fused, 0U);
}

TEST(FaultInjectionTest, FusedMatchesUnfusedUnderOutages) {
  // A fused arrival reaches the server at the drain barrier after its own
  // time, so the server must judge the outage window at the arrival's
  // time, as the oracle does, not at the barrier's clock. Windows that
  // open on a slot boundary and mid-slot, dark and brown.
  for (const bool brownout : {false, true}) {
    for (const double start : {200.0, 200.5}) {
      core::SystemConfig config = SmallLoadedConfig();
      config.fault.outage_start = start;
      config.fault.outage_duration = 25.0;
      config.fault.outage_period = 400.0;
      config.fault.brownout = brownout;
      SCOPED_TRACE(::testing::Message() << (brownout ? "brownout" : "blackout")
                                        << " from " << start);
      config.vc_fusion = true;
      core::System fused_system(config);
      const core::RunResult fused =
          fused_system.RunSteadyState(QuickProtocol());
      config.vc_fusion = false;
      core::System unfused_system(config);
      const core::RunResult unfused =
          unfused_system.RunSteadyState(QuickProtocol());
      ExpectIdenticalResults(fused, unfused);
      EXPECT_GT(fused.requests_dropped_outage, 0U);
      EXPECT_GT(fused.kernel.lazy_arrivals_fused, 0U);
    }
  }
}

TEST(FaultInjectionTest, RequestDelayForcesTheUnfusedPath) {
  // Delayed submissions re-enter through the event heap; the fused batch
  // path cannot re-time them, so System must drop to unfused even when the
  // config asks for fusion.
  core::SystemConfig config = SmallLoadedConfig();
  config.vc_fusion = true;
  config.fault.request_delay = 2.0;
  core::System system(config);
  const core::RunResult r = system.RunSteadyState(QuickProtocol());
  EXPECT_EQ(r.kernel.lazy_arrivals_fused, 0U);
  EXPECT_GT(r.fault_requests_delayed, 0U);
}

TEST(FaultInjectionTest, SlotLossRateIsRoughlyHonouredSystemWide) {
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.2;
  core::System system(config);
  const core::RunResult r = system.RunSteadyState(QuickProtocol());
  // Idle slots carry no page and are never judged, so the denominator is
  // the busy-slot count.
  const double busy =
      (r.push_slot_frac + r.pull_slot_frac) * r.sim_time_end;
  ASSERT_GT(busy, 1000.0);
  const double rate = static_cast<double>(r.fault_slots_lost) / busy;
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(FaultInjectionTest, QueueAccountingBalancesUnderAllFaults) {
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.1;
  config.fault.request_loss = 0.1;
  config.fault.outage_start = 100.0;
  config.fault.outage_duration = 30.0;
  config.fault.outage_period = 500.0;
  config.fault.shed_hi = 0.6;
  config.fault.degraded_pull_bw = 0.5;
  core::System system(config);
  const core::RunResult r = system.RunSteadyState(QuickProtocol());
  EXPECT_EQ(r.requests_submitted,
            r.requests_accepted + r.requests_coalesced + r.requests_dropped +
                r.requests_shed + r.requests_dropped_outage);
  EXPECT_GT(r.requests_dropped_outage, 0U);
}

TEST(FaultInjectionTest, ConfigRoundTripsThroughTextWithAFaultPlan) {
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.125;
  config.fault.request_delay = 1.5;
  config.fault.brownout = true;
  config.fault.shed_hi = 0.75;
  config.fault.mc_max_retries = 7;
  const std::string text = core::ConfigToText(config);

  core::SystemConfig parsed;
  ASSERT_EQ(core::ParseConfigText(text, &parsed), "");
  EXPECT_EQ(parsed.fault.slot_loss, 0.125);
  EXPECT_EQ(parsed.fault.request_delay, 1.5);
  EXPECT_TRUE(parsed.fault.brownout);
  EXPECT_EQ(parsed.fault.shed_hi, 0.75);
  EXPECT_EQ(parsed.fault.mc_max_retries, 7U);
  // The re-parsed config drives the identical trajectory.
  core::System a(config);
  core::System b(parsed);
  ExpectIdenticalResults(a.RunSteadyState(QuickProtocol()),
                         b.RunSteadyState(QuickProtocol()));
}

}  // namespace
}  // namespace bdisk
