// Unit tests for the adaptive controllers (paper §6 extension) plus
// end-to-end behaviour through core::System.

#include <functional>

#include <gtest/gtest.h>

#include "adaptive/client_controller.h"
#include "adaptive/server_controller.h"
#include "core/system.h"
#include "oracles.h"

namespace bdisk::adaptive {
namespace {

using broadcast::BroadcastProgram;
using server::BroadcastServer;

// ------------------------------------------------------- ServerController

TEST(ServerControllerTest, LowersPullBwUnderDrops) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1}, 64)), 0.5,
                         /*queue_capacity=*/4, sim::Rng(1));
  ServerControllerOptions options;
  options.control_period = 10.0;
  ServerController controller(&sim, &server, options);
  controller.Start();

  // Flood the queue so most submissions drop.
  std::function<void()> flood = [&] {
    for (broadcast::PageId p = 2; p < 40; ++p) server.SubmitRequest(p);
    sim.ScheduleAfter(1.0, [&flood] { flood(); });
  };
  sim.ScheduleAfter(0.0, [&flood] { flood(); });
  sim.RunUntil(100.0);
  EXPECT_LT(server.pull_bw(), 0.5);
  EXPECT_GT(controller.Adjustments(), 0U);
}

TEST(ServerControllerTest, RaisesPullBwWhenIdle) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1}, 8)), 0.3, 10,
                         sim::Rng(1));
  ServerControllerOptions options;
  options.control_period = 10.0;
  ServerController controller(&sim, &server, options);
  controller.Start();
  sim.RunUntil(200.0);  // No requests at all.
  EXPECT_GT(server.pull_bw(), 0.3);
  EXPECT_LE(server.pull_bw(), options.bw_max);
}

TEST(ServerControllerTest, RespectsClampRange) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1}, 8)), 0.9, 10,
                         sim::Rng(1));
  ServerControllerOptions options;
  options.control_period = 5.0;
  options.bw_max = 0.95;
  ServerController controller(&sim, &server, options);
  controller.Start();
  sim.RunUntil(1000.0);
  EXPECT_LE(server.pull_bw(), options.bw_max);
  EXPECT_GE(server.pull_bw(), options.bw_min);
}

TEST(ServerControllerTest, CountsDecisions) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0}, 4)), 0.5, 10,
                         sim::Rng(1));
  ServerControllerOptions options;
  options.control_period = 10.0;
  ServerController controller(&sim, &server, options);
  controller.Start();
  sim.RunUntil(100.0);
  EXPECT_EQ(controller.Decisions(), 10U);
}

TEST(ServerControllerDeathTest, RejectsBadOptions) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0}, 4)), 0.5, 10,
                         sim::Rng(1));
  ServerControllerOptions options;
  options.control_period = 0.0;
  EXPECT_DEATH(ServerController(&sim, &server, options), "period");
  options = ServerControllerOptions{};
  options.bw_min = 0.0;
  EXPECT_DEATH(ServerController(&sim, &server, options), "clamp");
}

// ------------------------------------------------------- ClientController

TEST(ClientControllerTest, NoSignalMeansNoAdjustment) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  client::MeasuredClientOptions mc_options;
  mc_options.cache_size = 2;
  mc_options.think_time = 5.0;
  mc_options.thres_perc = 0.25;
  workload::AccessPattern pattern({0.25, 0.25, 0.25, 0.25});
  client::MeasuredClient mc(&sim, &server, pattern, mc_options, sim::Rng(2));

  ClientControllerOptions options;
  options.control_period = 10.0;
  ClientController controller(&sim, &mc, options);
  controller.Start();
  // The client never starts, so PullWaitRatio stays 0.
  sim.RunUntil(100.0);
  EXPECT_EQ(controller.Adjustments(), 0U);
  EXPECT_EQ(mc.thres_perc(), 0.25);
}

TEST(ClientControllerDeathTest, RejectsBadOptions) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0}, 4)), 0.5, 10,
                         sim::Rng(1));
  client::MeasuredClientOptions mc_options;
  mc_options.cache_size = 2;
  workload::AccessPattern pattern({1.0, 0.0, 0.0, 0.0});
  client::MeasuredClient mc(&sim, &server, pattern, mc_options, sim::Rng(2));
  ClientControllerOptions options;
  options.ratio_low = 0.9;
  options.ratio_high = 0.1;
  EXPECT_DEATH(ClientController(&sim, &mc, options), "ratio_low");
}

// ------------------------------------------------------------ End-to-end

core::SystemConfig AdaptiveConfig(double ttr) {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = ttr;
  config.seed = 77;
  config.adaptive_pull_bw = true;
  config.adaptive_threshold = true;
  config.server_controller.control_period = 160.0;
  config.client_controller.control_period = 160.0;
  return config;
}

core::SteadyStateProtocol FastProtocol() {
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 500;
  protocol.min_measured_accesses = 3000;
  protocol.max_measured_accesses = 10000;
  protocol.batch_size = 1000;
  protocol.tolerance = 0.05;
  return protocol;
}

TEST(AdaptiveSystemTest, ControllersAreWiredAndRun) {
  core::System system(AdaptiveConfig(50.0));
  ASSERT_NE(system.server_controller(), nullptr);
  ASSERT_NE(system.client_controller(), nullptr);
  system.RunSteadyState(FastProtocol());
  EXPECT_GT(system.server_controller()->Decisions(), 10U);
  EXPECT_GT(system.client_controller()->Decisions(), 10U);
}

TEST(AdaptiveSystemTest, HeavyLoadDrivesKnobsConservative) {
  core::System system(AdaptiveConfig(500.0));
  system.RunSteadyState(FastProtocol());
  // Under saturation the server sheds pull bandwidth and/or the client
  // raises its threshold.
  EXPECT_TRUE(system.server().pull_bw() < 0.5 ||
              system.mc().thres_perc() > 0.0)
      << "bw=" << system.server().pull_bw()
      << " thres=" << system.mc().thres_perc();
}

TEST(AdaptiveSystemTest, LightLoadKeepsPullAggressive) {
  // TTR=2 in the scaled config: request rate ~0.15/unit vs 0.5 pull
  // service — genuinely light (TTR=5 here is already borderline, since VC
  // arrivals run at 1/unit).
  core::System system(AdaptiveConfig(2.0));
  const core::RunResult result = system.RunSteadyState(FastProtocol());
  EXPECT_GE(system.server().pull_bw(), 0.5);
  // And performance stays in pull-ish territory, far below Pure-Push.
  EXPECT_LT(result.mean_response, 40.0);
}

TEST(AdaptiveSystemTest, AdaptiveRobustAcrossExtremes) {
  // The adaptive system should avoid the catastrophic corner of each
  // static extreme: compare with static IPP bw=0.9,t=0 at heavy load.
  core::SystemConfig static_config = AdaptiveConfig(500.0);
  static_config.adaptive_pull_bw = false;
  static_config.adaptive_threshold = false;
  static_config.pull_bw = 0.9;
  static_config.thres_perc = 0.0;
  core::System static_system(static_config);
  const double static_heavy =
      static_system.RunSteadyState(FastProtocol()).mean_response;

  core::System adaptive_system(AdaptiveConfig(500.0));
  const double adaptive_heavy =
      adaptive_system.RunSteadyState(FastProtocol()).mean_response;
  EXPECT_LT(adaptive_heavy, static_heavy * 1.1);
}

TEST(AdaptiveSystemDeathTest, RejectsAdaptivePureModes) {
  core::SystemConfig config = AdaptiveConfig(10.0);
  config.mode = core::DeliveryMode::kPurePull;
  EXPECT_DEATH(core::System system(config), "adaptive");
}

}  // namespace
}  // namespace bdisk::adaptive
