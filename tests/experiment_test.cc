#include "core/experiment.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace bdisk::core {
namespace {

SystemConfig SmallConfig(double ttr) {
  SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = ttr;
  config.seed = 7;
  return config;
}

SteadyStateProtocol FastProtocol() {
  SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 100;
  protocol.min_measured_accesses = 1000;
  protocol.max_measured_accesses = 3000;
  protocol.batch_size = 500;
  protocol.tolerance = 0.1;
  return protocol;
}

TEST(ExperimentTest, EmptySweep) {
  EXPECT_TRUE(RunSweep({}).empty());
}

TEST(ExperimentTest, OutcomesKeepInputOrderAndLabels) {
  std::vector<SweepPoint> points;
  for (const double ttr : {5.0, 10.0, 20.0}) {
    SweepPoint point;
    point.curve = "IPP";
    point.x = ttr;
    point.config = SmallConfig(ttr);
    points.push_back(point);
  }
  const auto outcomes = RunSweep(points, FastProtocol());
  ASSERT_EQ(outcomes.size(), 3U);
  EXPECT_EQ(outcomes[0].point.x, 5.0);
  EXPECT_EQ(outcomes[1].point.x, 10.0);
  EXPECT_EQ(outcomes[2].point.x, 20.0);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.point.curve, "IPP");
    EXPECT_GT(outcome.result.mean_response, 0.0);
  }
}

TEST(ExperimentTest, ParallelMatchesSerial) {
  std::vector<SweepPoint> points;
  for (const double ttr : {5.0, 25.0}) {
    SweepPoint point;
    point.x = ttr;
    point.config = SmallConfig(ttr);
    points.push_back(point);
  }
  const auto serial = RunSweep(points, FastProtocol(), {}, 1);
  const auto parallel = RunSweep(points, FastProtocol(), {}, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.mean_response,
              parallel[i].result.mean_response);
  }
}

TEST(ExperimentTest, BadPointSurfacesAsExceptionNotCrash) {
  // A worker hitting an invalid config must not std::terminate the
  // process; the failure is rethrown on the calling thread.
  std::vector<SweepPoint> points(3);
  points[0].config = SmallConfig(5.0);
  points[1].config = SmallConfig(5.0);
  points[1].config.pull_bw = 2.0;  // Fails Validate().
  points[2].config = SmallConfig(5.0);
  for (const unsigned threads : {1U, 4U}) {
    EXPECT_THROW(RunSweep(points, FastProtocol(), {}, threads),
                 std::invalid_argument)
        << "num_threads=" << threads;
  }
}

// A small fig03-style grid (all three delivery modes x two loads, Table-3
// shape scaled to db=100) must produce bit-identical outcomes whether the
// sweep runs on 1 thread or 4 — the shared artifact cache and
// work-stealing order must not leak into results. Each point is followed
// by its unfused twin (vc_fusion = false, the oracle), so fused and
// unfused runs also share the threaded sweep.
std::vector<SweepPoint> SmallFig03Grid() {
  std::vector<SweepPoint> points;
  const DeliveryMode modes[] = {DeliveryMode::kPurePush,
                                DeliveryMode::kPurePull, DeliveryMode::kIpp};
  for (const DeliveryMode mode : modes) {
    for (const double ttr : {10.0, 50.0}) {
      SweepPoint point;
      point.curve = DeliveryModeName(mode);
      point.x = ttr;
      point.config = SmallConfig(ttr);
      point.config.mode = mode;
      points.push_back(point);
      point.curve += " unfused";
      point.config.vc_fusion = false;
      points.push_back(point);
    }
  }
  return points;
}

TEST(ExperimentTest, SweepIsBitIdenticalAcrossThreadCounts) {
  const auto points = SmallFig03Grid();
  const auto serial = RunSweep(points, FastProtocol(), {}, 1);
  const auto parallel = RunSweep(points, FastProtocol(), {}, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].point.curve + " ttr=" +
                 std::to_string(serial[i].point.x));
    const RunResult& a = serial[i].result;
    const RunResult& b = parallel[i].result;
    EXPECT_EQ(a.mean_response, b.mean_response);
    EXPECT_EQ(a.response_stats.Variance(), b.response_stats.Variance());
    EXPECT_EQ(a.mc_accesses, b.mc_accesses);
    EXPECT_EQ(a.requests_submitted, b.requests_submitted);
    EXPECT_EQ(a.requests_dropped, b.requests_dropped);
    EXPECT_EQ(a.push_slot_frac, b.push_slot_frac);
    EXPECT_EQ(a.pull_slot_frac, b.pull_slot_frac);
    EXPECT_EQ(a.sim_time_end, b.sim_time_end);
    EXPECT_EQ(a.kernel.events_executed, b.kernel.events_executed);
    EXPECT_EQ(a.kernel.lazy_arrivals_fused, b.kernel.lazy_arrivals_fused);
  }
  // Fusion changes how arrivals are scheduled, never the trajectory.
  for (std::size_t i = 0; i + 1 < parallel.size(); i += 2) {
    SCOPED_TRACE(parallel[i + 1].point.curve + " ttr=" +
                 std::to_string(parallel[i + 1].point.x));
    const RunResult& fused = parallel[i].result;
    const RunResult& unfused = parallel[i + 1].result;
    EXPECT_EQ(fused.mean_response, unfused.mean_response);
    EXPECT_EQ(fused.response_stats.Count(), unfused.response_stats.Count());
    EXPECT_EQ(fused.sim_time_end, unfused.sim_time_end);
    EXPECT_EQ(fused.requests_submitted, unfused.requests_submitted);
    EXPECT_EQ(fused.requests_dropped, unfused.requests_dropped);
  }
}

TEST(ExperimentTest, ArtifactCacheSharesAcrossSeedsAndLoads) {
  ArtifactCache cache;
  SystemConfig config = SmallConfig(10.0);
  const auto base = cache.Get(config);
  // Seed and load do not enter the artifacts.
  SystemConfig other = config;
  other.seed = config.seed + 17;
  other.think_time_ratio = 250.0;
  EXPECT_EQ(cache.Get(other), base);
  // The database size does.
  SystemConfig resized = config;
  resized.server_db_size = 200;
  resized.disks = broadcast::DiskConfig{{20, 80, 100}, {3, 2, 1}};
  EXPECT_NE(cache.Get(resized), base);
  // Pure-Pull has no program at all: distinct artifacts, shared among
  // pull points regardless of disk shape.
  SystemConfig pull = config;
  pull.mode = DeliveryMode::kPurePull;
  SystemConfig pull_other_disks = pull;
  pull_other_disks.disks = broadcast::DiskConfig{{50, 30, 20}, {5, 3, 1}};
  EXPECT_NE(cache.Get(pull), base);
  EXPECT_EQ(cache.Get(pull_other_disks), cache.Get(pull));
}

TEST(ExperimentTest, ReplicationsAggregateAcrossSeeds) {
  const auto result = RunReplicated(SmallConfig(10.0), 4, FastProtocol());
  EXPECT_EQ(result.means.Count(), 4U);
  EXPECT_EQ(result.replications.size(), 4U);
  EXPECT_GT(result.means.Mean(), 0.0);
  EXPECT_GT(result.ci95_half_width, 0.0);
  // Seeds differ, so replications are not literally identical...
  EXPECT_GT(result.means.StdDev(), 0.0);
  // ...but they estimate the same quantity: CI is small relative to mean.
  EXPECT_LT(result.ci95_half_width, result.means.Mean());
}

TEST(ExperimentTest, SingleReplicationHasNoInterval) {
  const auto result = RunReplicated(SmallConfig(10.0), 1, FastProtocol());
  EXPECT_EQ(result.means.Count(), 1U);
  EXPECT_EQ(result.ci95_half_width, 0.0);
}

TEST(ExperimentTest, ReplicationIsDeterministic) {
  const auto a = RunReplicated(SmallConfig(10.0), 3, FastProtocol());
  const auto b = RunReplicated(SmallConfig(10.0), 3, FastProtocol());
  EXPECT_EQ(a.means.Mean(), b.means.Mean());
}

TEST(ExperimentTest, ReplicationIntervalIsThreadCountInvariant) {
  // The reported confidence interval is a published number; it must not
  // wobble with the machine's core count.
  const auto serial = RunReplicated(SmallConfig(10.0), 4, FastProtocol(), 1);
  const auto parallel =
      RunReplicated(SmallConfig(10.0), 4, FastProtocol(), 4);
  EXPECT_EQ(serial.means.Mean(), parallel.means.Mean());
  EXPECT_EQ(serial.ci95_half_width, parallel.ci95_half_width);
  ASSERT_EQ(serial.replications.size(), parallel.replications.size());
  for (std::size_t i = 0; i < serial.replications.size(); ++i) {
    EXPECT_EQ(serial.replications[i].mean_response,
              parallel.replications[i].mean_response);
  }
}

TEST(ExperimentDeathTest, ReplicationNeedsAtLeastOne) {
  EXPECT_DEATH(RunReplicated(SmallConfig(10.0), 0, FastProtocol()),
               "at least one");
}

TEST(ExperimentTest, MixedWarmupAndSteadyPoints) {
  std::vector<SweepPoint> points(2);
  points[0].config = SmallConfig(5.0);
  points[0].warmup_run = false;
  points[1].config = SmallConfig(5.0);
  points[1].warmup_run = true;
  const auto outcomes = RunSweep(points, FastProtocol());
  EXPECT_TRUE(outcomes[0].result.warmup.empty());
  EXPECT_FALSE(outcomes[1].result.warmup.empty());
}

}  // namespace
}  // namespace bdisk::core
