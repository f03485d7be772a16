#include "client/virtual_client.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_sink.h"
#include "oracles.h"
#include "sim/simulator.h"

namespace bdisk::client {
namespace {

using broadcast::BroadcastProgram;
using server::BroadcastServer;
using workload::AccessPattern;

AccessPattern AlwaysPage(std::size_t db_size, PageId page) {
  std::vector<double> probs(db_size, 0.0);
  probs[page] = 1.0;
  return AccessPattern(probs);
}

VirtualClientOptions BaseOptions() {
  VirtualClientOptions options;
  options.mc_think_time = 20.0;
  options.think_time_ratio = 10.0;  // Mean inter-arrival 2.0.
  options.steady_state_perc = 0.0;
  options.thres_perc = 0.0;
  options.cache_size = 2;
  return options;
}

TEST(VirtualClientTest, GeneratesAtTheConfiguredRate) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, BaseOptions(),
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(10000.0);
  // ~5000 arrivals expected (mean inter-arrival 2.0).
  EXPECT_GT(vc.RequestsGenerated(), 4500U);
  EXPECT_LT(vc.RequestsGenerated(), 5500U);
}

TEST(VirtualClientTest, WarmupRequestsBypassTheCache) {
  // steady_state_perc = 0: every arrival is a warm-up client; even pages in
  // the warm set are submitted.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, BaseOptions(),
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(100.0);
  EXPECT_GT(vc.RequestsSubmitted(), 0U);
  EXPECT_EQ(vc.CacheHits(), 0U);
  // Everything either goes to the server or is held back by the zero
  // threshold (requests whose page is the very next push slot).
  EXPECT_EQ(vc.RequestsSubmitted() + vc.FilteredByThreshold(),
            vc.RequestsGenerated());
}

TEST(VirtualClientTest, SteadyStateRequestsFilterThroughWarmCache) {
  // steady_state_perc = 1 and the requested page is in the warm set: every
  // access is a cache hit; nothing reaches the server.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.steady_state_perc = 1.0;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, options,
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(100.0);
  EXPECT_GT(vc.RequestsGenerated(), 0U);
  EXPECT_EQ(vc.RequestsSubmitted(), 0U);
  EXPECT_EQ(vc.CacheHits(), vc.RequestsGenerated());
}

TEST(VirtualClientTest, SteadyStateMissesAreSubmitted) {
  // Warm set does NOT contain the hot page: steady-state accesses miss and
  // are submitted.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.steady_state_perc = 1.0;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {0, 1}, options,
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(100.0);
  EXPECT_EQ(vc.CacheHits(), 0U);
  EXPECT_EQ(vc.RequestsSubmitted() + vc.FilteredByThreshold(),
            vc.RequestsGenerated());
  EXPECT_GT(vc.RequestsSubmitted(), 0U);
}

TEST(VirtualClientTest, ThresholdFiltersSubmissions) {
  // Page 2 appears every other slot; with ThresPerc=100% the filter blocks
  // every request for it.
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({2, 0}, 4)), 0.5, 10,
                         sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.thres_perc = 1.0;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {1, 3}, options,
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(100.0);
  EXPECT_GT(vc.RequestsGenerated(), 0U);
  EXPECT_EQ(vc.RequestsSubmitted(), 0U);
  EXPECT_EQ(vc.FilteredByThreshold(), vc.RequestsGenerated());
}

TEST(VirtualClientTest, MixedSteadyStateSplitsRoughlyByCoin) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         100, sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.steady_state_perc = 0.95;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, options,
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(20000.0);
  // 95% of arrivals hit the warm cache; ~5% (warm-up) are submitted.
  const double hit_rate = static_cast<double>(vc.CacheHits()) /
                          static_cast<double>(vc.RequestsGenerated());
  EXPECT_NEAR(hit_rate, 0.95, 0.02);
}

TEST(VirtualClientDeathTest, RejectsWrongWarmSetSize) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  EXPECT_DEATH(VirtualClient(&sim, &server, AlwaysPage(4, 2), {2},
                             BaseOptions(), sim::Rng(2)),
               "CacheSize");
}

// The VC's think time is exponential with mean mc_think_time / TTR: here
// 20 / 250 = 0.08, the paper's heaviest load. Over 2000 units that is
// ~25,000 arrivals, so the count is within 3% with a wide margin.
TEST(ThinkTimeTest, ExponentialHasRequestedMean) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.think_time_ratio = 250.0;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, options,
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(2000.0);
  const double mean = 2000.0 / static_cast<double>(vc.RequestsGenerated());
  EXPECT_NEAR(mean, 0.08, 0.08 * 0.03);
}

// Page 4 is never pushed, so every arrival reaches the backchannel and
// the gaps between the VC's submit records are its think times: drawn,
// not fixed.
TEST(ThinkTimeTest, ExponentialVaries) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 5)), 0.5,
                         10, sim::Rng(1));
  obs::TraceSink sink;
  server.SetTraceSink(&sink);
  VirtualClient vc(&sim, &server, AlwaysPage(5, 4), {2, 3}, BaseOptions(),
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(200.0);
  std::vector<sim::SimTime> arrivals;
  for (const obs::SpanRecord& r : sink.Events()) {
    if (r.client == obs::kVirtualClientId) arrivals.push_back(r.time);
  }
  ASSERT_EQ(arrivals.size(), vc.RequestsGenerated());
  ASSERT_GT(arrivals.size(), 10U);
  std::set<sim::SimTime> gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i], arrivals[i - 1]);
    gaps.insert(arrivals[i] - arrivals[i - 1]);
  }
  EXPECT_EQ(gaps.size(), arrivals.size() - 1);
}

TEST(ThinkTimeDeathTest, RejectsNonPositiveMean) {
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram({0, 1, 2, 3}, 4)), 0.5,
                         10, sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.mc_think_time = 0.0;
  EXPECT_DEATH(VirtualClient(&sim, &server, AlwaysPage(4, 2), {2, 3},
                             options, sim::Rng(2)),
               "positive");
  options = BaseOptions();
  options.think_time_ratio = -1.0;
  EXPECT_DEATH(VirtualClient(&sim, &server, AlwaysPage(4, 2), {2, 3},
                             options, sim::Rng(2)),
               "positive");
}

}  // namespace
}  // namespace bdisk::client
