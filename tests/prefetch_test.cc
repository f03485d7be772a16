// Tests of the PT prefetching extension ([Acha96a]): the measured client
// opportunistically swaps high p*t pages off the broadcast into its cache.

#include <gtest/gtest.h>

#include "client/measured_client.h"
#include "core/system.h"
#include "oracles.h"
#include "sim/simulator.h"

namespace bdisk {
namespace {

using broadcast::BroadcastProgram;
using server::BroadcastServer;
using workload::AccessPattern;

TEST(PrefetchTest, FillsColdCacheFromTheBroadcast) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.0,
                         10, sim::Rng(1));
  client::MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 1000.0;  // Effectively idle: only prefetch acts.
  options.use_backchannel = false;
  options.prefetch = true;
  AccessPattern pattern({0.4, 0.3, 0.2, 0.1});
  client::MeasuredClient mc(&sim, &server, pattern, options, sim::Rng(2));
  // Note: Start() not called — prefetching is passive listening.
  sim.RunUntil(10.0);
  EXPECT_EQ(mc.cache().Size(), 2U);
  EXPECT_GE(mc.Prefetches(), 2U);
}

TEST(PrefetchTest, PrefersHighPtPages) {
  // Flat disk, equal frequencies: p*t reduces to p, so the cache must
  // converge to the two hottest pages.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.0,
                         10, sim::Rng(1));
  client::MeasuredClientOptions options;
  options.cache_size = 2;
  options.think_time = 1000.0;
  options.use_backchannel = false;
  options.prefetch = true;
  AccessPattern pattern({0.4, 0.3, 0.2, 0.1});
  client::MeasuredClient mc(&sim, &server, pattern, options, sim::Rng(2));
  sim.RunUntil(50.0);
  EXPECT_TRUE(mc.cache().Contains(0));
  EXPECT_TRUE(mc.cache().Contains(1));
  EXPECT_FALSE(mc.cache().Contains(3));
}

TEST(PrefetchTest, AccountsForBroadcastFrequency) {
  // Page 0 is hot but broadcast every other slot (low t); page 2 is
  // slightly colder but appears once per cycle (high t). With
  // probabilities 0.4 / 0.3, p*t favours page 2: 0.3*4 > 0.4*2.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 0, 2}, 3)), 0.0,
                         10, sim::Rng(1));
  client::MeasuredClientOptions options;
  options.cache_size = 1;
  options.think_time = 1000.0;
  options.use_backchannel = false;
  options.prefetch = true;
  AccessPattern pattern({0.4, 0.3, 0.3});
  client::MeasuredClient mc(&sim, &server, pattern, options, sim::Rng(2));
  sim.RunUntil(60.0);
  EXPECT_TRUE(mc.cache().Contains(2));
}

TEST(PrefetchTest, ImprovesWarmupTime) {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 10.0;
  config.mode = core::DeliveryMode::kPurePush;
  config.seed = 5;

  core::System demand(config);
  const core::RunResult without = demand.RunWarmup();

  config.mc_prefetch = true;
  core::System prefetching(config);
  const core::RunResult with = prefetching.RunWarmup();

  ASSERT_TRUE(without.converged);
  ASSERT_TRUE(with.converged);
  // Prefetching must reach a fully warm cache dramatically sooner — it
  // grabs pages as they stream past instead of waiting to fault on them.
  EXPECT_LT(with.warmup.back().time, without.warmup.back().time / 2.0);
  EXPECT_GT(with.mc_prefetches, 0U);
}

TEST(PrefetchTest, DoesNotHurtSteadyStateResponse) {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 10.0;
  config.mode = core::DeliveryMode::kPurePush;
  config.seed = 5;

  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 200;
  protocol.min_measured_accesses = 2000;
  protocol.max_measured_accesses = 8000;
  protocol.batch_size = 500;
  protocol.tolerance = 0.05;

  core::System demand(config);
  const double without = demand.RunSteadyState(protocol).mean_response;
  config.mc_prefetch = true;
  core::System prefetching(config);
  const double with = prefetching.RunSteadyState(protocol).mean_response;
  EXPECT_LT(with, without * 1.15);
}

TEST(PrefetchDeathTest, RequiresAPushProgram) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({}, 4)), 1.0, 10,
                         sim::Rng(1));
  client::MeasuredClientOptions options;
  options.cache_size = 2;
  options.prefetch = true;
  AccessPattern pattern({0.4, 0.3, 0.2, 0.1});
  EXPECT_DEATH(client::MeasuredClient(&sim, &server, pattern, options,
                                      sim::Rng(2)),
               "push program");
}

TEST(PrefetchDeathTest, ConfigRejectsPurePull) {
  core::SystemConfig config;
  config.mode = core::DeliveryMode::kPurePull;
  config.mc_prefetch = true;
  EXPECT_DEATH(core::System system(config), "Pure-Pull");
}

}  // namespace
}  // namespace bdisk
