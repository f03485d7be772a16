#include "core/system.h"

#include <gtest/gtest.h>

#include "analytic.h"
#include "cache/value_functions.h"

namespace bdisk::core {
namespace {

// A 10x scaled-down paper configuration that keeps tests fast.
SystemConfig SmallConfig() {
  SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 10.0;
  config.seed = 7;
  return config;
}

SteadyStateProtocol FastProtocol() {
  SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 200;
  protocol.min_measured_accesses = 2000;
  protocol.max_measured_accesses = 8000;
  protocol.batch_size = 500;
  protocol.tolerance = 0.05;
  return protocol;
}

TEST(SystemTest, BuildsBalancedProgramOfExpectedLength) {
  SystemConfig config = SmallConfig();
  System system(config);
  // Balanced: 10*3 + 40*2 + 50*1 = 160 slots, no padding.
  EXPECT_EQ(system.program().Length(), 160U);
  for (std::uint32_t pos = 0; pos < 160; ++pos) {
    EXPECT_NE(system.program().PageAt(pos), broadcast::kNoPage);
  }
}

TEST(SystemTest, OffsetPlacesHottestPagesOnSlowestDisk) {
  System system(SmallConfig());
  // Pages 0..9 (hottest, = CacheSize with offset) must broadcast once per
  // cycle; pages 10..19 (fastest disk) three times.
  for (broadcast::PageId p = 0; p < 10; ++p) {
    EXPECT_EQ(system.program().Frequency(p), 1U) << p;
  }
  for (broadcast::PageId p = 10; p < 20; ++p) {
    EXPECT_EQ(system.program().Frequency(p), 3U) << p;
  }
}

TEST(SystemTest, PurePushHasNoVirtualClientAndNoBackchannel) {
  SystemConfig config = SmallConfig();
  config.mode = DeliveryMode::kPurePush;
  System system(config);
  EXPECT_EQ(system.vc(), nullptr);
  const RunResult result = system.RunSteadyState(FastProtocol());
  EXPECT_EQ(result.requests_submitted, 0U);
  EXPECT_EQ(result.drop_rate, 0.0);
  EXPECT_EQ(result.pull_slot_frac, 0.0);
  EXPECT_EQ(result.mc_pulls_sent, 0U);
}

TEST(SystemTest, PurePushMatchesAnalyticSteadyState) {
  SystemConfig config = SmallConfig();
  config.mode = DeliveryMode::kPurePush;
  System system(config);

  // Predicted steady-state response: misses outside the ideal PIX cache.
  const auto pix = cache::PixValues(system.mc_pattern().probs(),
                                    system.program());
  std::vector<bool> resident(config.server_db_size, false);
  for (const auto p : TopValuedPages(pix, config.cache_size)) {
    resident[p] = true;
  }
  const double predicted = ExpectedSteadyPushResponse(
      system.program(), system.mc_pattern().probs(), resident);

  const RunResult result = system.RunSteadyState(FastProtocol());
  EXPECT_GT(result.mean_response, 0.0);
  // The simulated cache only approximates the ideal set at its boundary, so
  // allow a generous band.
  EXPECT_NEAR(result.mean_response, predicted, 0.25 * predicted);
}

TEST(SystemTest, PurePullLightLoadIsFast) {
  SystemConfig config = SmallConfig();
  config.mode = DeliveryMode::kPurePull;
  config.think_time_ratio = 2.0;  // Very light backchannel load.
  System system(config);
  EXPECT_TRUE(system.program().Empty());
  const RunResult result = system.RunSteadyState(FastProtocol());
  // Misses should be served in ~2 units; with ~50%+ cache hits at 0 the
  // mean is strictly below 2 and far below any push latency.
  EXPECT_GT(result.mean_response, 0.0);
  EXPECT_LT(result.mean_response, 5.0);
  EXPECT_EQ(result.push_slot_frac, 0.0);
}

TEST(SystemTest, SteadyStateRunConvergesAndReportsCounts) {
  SystemConfig config = SmallConfig();
  System system(config);
  const RunResult result = system.RunSteadyState(FastProtocol());
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.response_stats.Count(), 2000U);
  EXPECT_GT(result.mc_accesses, result.response_stats.Count());
  EXPECT_GT(result.mc_hit_rate, 0.2);
  EXPECT_LT(result.mc_hit_rate, 0.95);
  EXPECT_EQ(result.major_cycle_len, 160U);
  EXPECT_NEAR(result.push_slot_frac + result.pull_slot_frac +
                  result.idle_slot_frac,
              1.0, 1e-9);
}

TEST(SystemTest, WarmupRunProducesMonotoneTrajectory) {
  SystemConfig config = SmallConfig();
  System system(config);
  WarmupProtocol protocol;
  const RunResult result = system.RunWarmup(protocol);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.warmup.size(), protocol.fractions.size());
  double prev_time = 0.0;
  for (const WarmupPoint& point : result.warmup) {
    EXPECT_NE(point.time, sim::kTimeNever) << point.fraction;
    EXPECT_GE(point.time, prev_time) << point.fraction;
    prev_time = point.time;
  }
}

TEST(SystemTest, TruncatedSystemServesUnscheduledPagesByPull) {
  SystemConfig config = SmallConfig();
  config.chop_count = 50;  // Entire slowest disk.
  config.pull_bw = 0.5;
  System system(config);
  EXPECT_EQ(system.layout().effective_config.sizes[2], 0U);
  EXPECT_EQ(system.layout().pull_only.size(), 50U);
  const RunResult result = system.RunSteadyState(FastProtocol());
  EXPECT_GT(result.mean_response, 0.0);
  EXPECT_GT(result.requests_submitted, 0U);
}

TEST(SystemTest, NoiseChangesMcPatternOnly) {
  SystemConfig config = SmallConfig();
  config.noise = 0.35;
  System system(config);
  int diffs = 0;
  for (broadcast::PageId p = 0; p < 100; ++p) {
    if (system.mc_pattern().Prob(p) != system.canonical_pattern().Prob(p)) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 5);
}

TEST(SystemTest, SameSeedSameResult) {
  SystemConfig config = SmallConfig();
  RunResult a = System(config).RunSteadyState(FastProtocol());
  RunResult b = System(config).RunSteadyState(FastProtocol());
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.sim_time_end, b.sim_time_end);
}

TEST(SystemTest, DifferentSeedsDifferButAgreeStatistically) {
  SystemConfig config = SmallConfig();
  RunResult a = System(config).RunSteadyState(FastProtocol());
  config.seed = 999;
  RunResult b = System(config).RunSteadyState(FastProtocol());
  EXPECT_NE(a.mean_response, b.mean_response);
  EXPECT_NEAR(a.mean_response, b.mean_response,
              0.3 * std::max(a.mean_response, b.mean_response));
}

TEST(SystemDeathTest, SecondRunAborts) {
  SystemConfig config = SmallConfig();
  System system(config);
  system.RunSteadyState(FastProtocol());
  EXPECT_DEATH(system.RunSteadyState(FastProtocol()), "one run");
}

TEST(SystemDeathTest, InvalidConfigAborts) {
  SystemConfig config = SmallConfig();
  config.pull_bw = 2.0;
  EXPECT_DEATH(System system(config), "pull_bw");
}

TEST(SystemTest, ZeroNoiseMakesPatternsIdentical) {
  System system(SmallConfig());
  for (broadcast::PageId p = 0; p < 100; ++p) {
    ASSERT_EQ(system.mc_pattern().Prob(p),
              system.canonical_pattern().Prob(p));
  }
}

TEST(SystemTest, CombinedExtensionsCoexist) {
  // Updates + prefetch + both adaptive controllers, all at once.
  SystemConfig config = SmallConfig();
  config.update_rate = 0.02;
  config.mc_prefetch = true;
  config.adaptive_pull_bw = true;
  config.adaptive_threshold = true;
  config.server_controller.control_period = 160.0;
  config.client_controller.control_period = 160.0;
  System system(config);
  const RunResult result = system.RunSteadyState(FastProtocol());
  EXPECT_GT(result.mean_response, 0.0);
  EXPECT_GT(result.updates_generated, 0U);
  EXPECT_GT(result.mc_prefetches, 0U);
  EXPECT_GT(system.server_controller()->Decisions(), 0U);
}

TEST(SystemTest, PurePullProgramForConfigIsEmpty) {
  SystemConfig config = SmallConfig();
  config.mode = DeliveryMode::kPurePull;
  const auto program = ProgramForConfig(config);
  EXPECT_TRUE(program.Empty());
  EXPECT_EQ(program.DbSize(), 100U);
}

TEST(TopValuedPagesTest, SelectsAndOrders) {
  const std::vector<double> values = {0.1, 0.9, 0.5, 0.9};
  EXPECT_EQ(TopValuedPages(values, 2),
            (std::vector<broadcast::PageId>{1, 3}));
  EXPECT_EQ(TopValuedPages(values, 3),
            (std::vector<broadcast::PageId>{1, 3, 2}));
}

}  // namespace
}  // namespace bdisk::core
