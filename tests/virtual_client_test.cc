#include "client/virtual_client.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_sink.h"
#include "oracles.h"
#include "sim/simulator.h"
#include "sim/zipf.h"

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

// One VC run at Zipf(1000, 0.95) over a stream whose word `zero_word` is
// 0: the trace of its submits and its lifetime counters.
struct DrawRun {
  std::vector<obs::SpanRecord> submits;
  std::uint64_t generated, hits, filtered, submitted;
};

DrawRun RunOverCraftedStream(bool fused, double steady_state_perc,
                             std::uint64_t zero_word) {
  constexpr std::uint32_t kDb = 1000;
  std::vector<PageId> schedule(200);
  for (PageId p = 0; p < schedule.size(); ++p) schedule[p] = p;
  sim::Simulator sim;
  BroadcastServer server(&sim, Share(BroadcastProgram(schedule, kDb)), 0.5,
                         50, sim::Rng(1));
  obs::TraceSink sink(1 << 16);
  server.SetTraceSink(&sink);
  VirtualClientOptions options = BaseOptions();
  options.steady_state_perc = steady_state_perc;
  options.cache_size = 10;
  options.fused = fused;
  VirtualClient vc(&sim, &server, AccessPattern(sim::ZipfPmf(kDb, 0.95)),
                   {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, options,
                   sim::RngWithWordAt(11, zero_word, 0));
  vc.Start();
  sim.RunUntil(1000.0);
  EXPECT_EQ(sink.DroppedEvents(), 0U);
  DrawRun run{{}, vc.RequestsGenerated(), vc.CacheHits(),
              vc.FilteredByThreshold(), vc.RequestsSubmitted()};
  for (const obs::SpanRecord& r : sink.Events()) {
    if (r.client == obs::kVirtualClientId) run.submits.push_back(r);
  }
  return run;
}

TEST(VirtualClientTest, FusedDrawMatchesTheOracleAcrossARejectedBucketWord) {
  // NextBounded rejects a bucket word of 0 and draws the next word, which
  // shifts every later word of the fused refill by one, so the lanes
  // decline the refill and sim::DrawArrivals draws it one arrival at a
  // time. Word 0 of the stream is Start()'s think; arrival j's bucket word
  // is then word 1 + j * (words per arrival) of the first refill: 4 with a
  // steady coin, 3 at SteadyStatePerc 1, when the coin draws nothing. The
  // arrivals are the first and last of each 64-arrival lane.
  for (const double steady : {0.5, 1.0}) {
    const std::uint64_t words = steady < 1.0 ? 4 : 3;
    for (const std::uint64_t arrival :
         {0, 1, 62, 63, 64, 127, 128, 191, 192, 255}) {
      const std::uint64_t zero_word = 1 + words * arrival;
      const DrawRun fused = RunOverCraftedStream(true, steady, zero_word);
      const DrawRun oracle = RunOverCraftedStream(false, steady, zero_word);
      SCOPED_TRACE(::testing::Message()
                   << "steady " << steady << ", arrival " << arrival);
      EXPECT_GT(fused.generated, 400U);
      EXPECT_EQ(fused.generated, oracle.generated);
      EXPECT_EQ(fused.hits, oracle.hits);
      EXPECT_EQ(fused.filtered, oracle.filtered);
      EXPECT_EQ(fused.submitted, oracle.submitted);
      ASSERT_EQ(fused.submits.size(), oracle.submits.size());
      for (std::size_t i = 0; i < fused.submits.size(); ++i) {
        ASSERT_EQ(fused.submits[i].time, oracle.submits[i].time) << i;
        ASSERT_EQ(fused.submits[i].page, oracle.submits[i].page) << i;
        ASSERT_EQ(fused.submits[i].event, oracle.submits[i].event) << i;
      }
    }
  }
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
