// Virtual-client event fusion: the lazy-source drain must be invisible to
// the simulated trajectory. These tests pin the kernel-level drain
// semantics (drain up to the clock, end-of-run barrier, one source) and the
// system-level guarantee: one config run fused vs. unfused produces the
// identical RunResult trajectory, with only the heap-event accounting
// moved into the fused-arrival counters.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/span_table.h"
#include "client/threshold_filter.h"
#include "client/virtual_client.h"
#include "core/experiment.h"
#include "core/system.h"
#include "obs/trace_sink.h"
#include "sim/lazy_source.h"
#include "sim/simulator.h"

namespace bdisk {
namespace {

// A lazy source with a fixed arrival script; drained arrivals are appended
// to a log so tests can check when they were drained.
class ScriptedSource : public sim::LazySource {
 public:
  ScriptedSource(int id, std::vector<sim::SimTime> times,
                 std::vector<std::pair<int, sim::SimTime>>* log)
      : id_(id), times_(std::move(times)), log_(log) {}

  std::uint64_t CatchUp(sim::SimTime horizon) override {
    std::uint64_t processed = 0;
    while (next_ < times_.size() && times_[next_] <= horizon) {
      log_->push_back({id_, times_[next_]});
      ++next_;
      ++processed;
    }
    return processed;
  }

 private:
  int id_;
  std::size_t next_ = 0;
  std::vector<sim::SimTime> times_;
  std::vector<std::pair<int, sim::SimTime>>* log_;
};

TEST(LazySourceTest, DrainStopsAtNow) {
  sim::Simulator sim;
  std::vector<std::pair<int, sim::SimTime>> log;
  ScriptedSource source(0, {1.0, 2.0, 7.5}, &log);
  sim.RegisterLazySource(&source);

  sim.ScheduleAfter(5.0, [&sim] { sim.CatchUpLazySources(); });
  sim.RunUntil(5.0);
  // The mid-run barrier drained up to 5.0; RunUntil's final barrier does
  // not reach past the deadline.
  ASSERT_EQ(log.size(), 2U);
  EXPECT_EQ(log[0], (std::pair<int, sim::SimTime>{0, 1.0}));
  EXPECT_EQ(log[1], (std::pair<int, sim::SimTime>{0, 2.0}));
  EXPECT_EQ(sim.LazyArrivalsFused(), 2U);

  sim.RunUntil(10.0);
  ASSERT_EQ(log.size(), 3U);
  EXPECT_EQ(log[2], (std::pair<int, sim::SimTime>{0, 7.5}));
  EXPECT_EQ(sim.LazyArrivalsFused(), 3U);
}

TEST(LazySourceDeathTest, RefusesASecondSource) {
  sim::Simulator sim;
  std::vector<std::pair<int, sim::SimTime>> log;
  ScriptedSource a(0, {1.0}, &log);
  ScriptedSource b(1, {2.0}, &log);
  sim.RegisterLazySource(&a);
  EXPECT_DEATH(sim.RegisterLazySource(&b), "one lazy source");
}

TEST(LazySourceTest, UnregisteredSourceIsNotDrained) {
  sim::Simulator sim;
  std::vector<std::pair<int, sim::SimTime>> log;
  ScriptedSource source(0, {1.0}, &log);
  sim.RegisterLazySource(&source);
  sim.UnregisterLazySource(&source);
  sim.RunUntil(5.0);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.LazyArrivalsFused(), 0U);
}

// A steady-state run of 500 to 1,500 measured accesses.
core::SteadyStateProtocol ShortProtocol() {
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 100;
  protocol.min_measured_accesses = 500;
  protocol.max_measured_accesses = 1500;
  protocol.batch_size = 250;
  protocol.tolerance = 0.1;
  return protocol;
}

// The system-level pin. Every trajectory field of RunResult must agree to
// the bit between a fused and an unfused run of the same config; only the
// kernel accounting may differ, and there the sum events_executed +
// lazy_arrivals_fused is invariant (each fused arrival is exactly one
// saved heap event). Returns the fused run's result.
core::RunResult ExpectFusionInvariant(core::SystemConfig config) {
  config.vc_fusion = true;
  core::System fused_system(config);
  const core::RunResult fused = fused_system.RunSteadyState(ShortProtocol());

  config.vc_fusion = false;
  core::System unfused_system(config);
  const core::RunResult unfused =
      unfused_system.RunSteadyState(ShortProtocol());

  EXPECT_EQ(fused.mean_response, unfused.mean_response);
  EXPECT_EQ(fused.response_stats.Variance(),
            unfused.response_stats.Variance());
  EXPECT_EQ(fused.response_stats.Count(), unfused.response_stats.Count());
  EXPECT_EQ(fused.response_p50, unfused.response_p50);
  EXPECT_EQ(fused.response_p99, unfused.response_p99);
  EXPECT_EQ(fused.mc_accesses, unfused.mc_accesses);
  EXPECT_EQ(fused.mc_hit_rate, unfused.mc_hit_rate);
  EXPECT_EQ(fused.mc_pulls_sent, unfused.mc_pulls_sent);
  EXPECT_EQ(fused.mc_retries_sent, unfused.mc_retries_sent);
  EXPECT_EQ(fused.mc_invalidations, unfused.mc_invalidations);
  EXPECT_EQ(fused.vc_requests_generated, unfused.vc_requests_generated);
  EXPECT_EQ(fused.vc_cache_hits, unfused.vc_cache_hits);
  EXPECT_EQ(fused.vc_filtered, unfused.vc_filtered);
  EXPECT_EQ(fused.vc_submitted, unfused.vc_submitted);
  EXPECT_EQ(fused.updates_generated, unfused.updates_generated);
  EXPECT_EQ(fused.requests_submitted, unfused.requests_submitted);
  EXPECT_EQ(fused.requests_accepted, unfused.requests_accepted);
  EXPECT_EQ(fused.requests_coalesced, unfused.requests_coalesced);
  EXPECT_EQ(fused.requests_dropped, unfused.requests_dropped);
  EXPECT_EQ(fused.queue_depth_high_water, unfused.queue_depth_high_water);
  EXPECT_EQ(fused.push_slot_frac, unfused.push_slot_frac);
  EXPECT_EQ(fused.pull_slot_frac, unfused.pull_slot_frac);
  EXPECT_EQ(fused.idle_slot_frac, unfused.idle_slot_frac);
  EXPECT_EQ(fused.sim_time_end, unfused.sim_time_end);
  EXPECT_EQ(fused.converged, unfused.converged);

  EXPECT_EQ(unfused.kernel.lazy_arrivals_fused, 0U);
  EXPECT_EQ(fused.kernel.events_executed + fused.kernel.lazy_arrivals_fused,
            unfused.kernel.events_executed);
  // The config drives real VC load, so fusion actually moved something.
  EXPECT_GT(fused.kernel.lazy_arrivals_fused, 0U);
  return fused;
}

core::SystemConfig SmallLoadedConfig(core::DeliveryMode mode) {
  core::SystemConfig config;
  config.mode = mode;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 50.0;
  config.pull_bw = 0.5;
  config.thres_perc = 0.1;
  config.seed = 20260806;
  return config;
}

TEST(FusionTest, FusedMatchesUnfusedIpp) {
  ExpectFusionInvariant(SmallLoadedConfig(core::DeliveryMode::kIpp));
}

TEST(FusionTest, FusedMatchesUnfusedPurePull) {
  ExpectFusionInvariant(SmallLoadedConfig(core::DeliveryMode::kPurePull));
}

TEST(FusionTest, FusedMatchesUnfusedWithUpdates) {
  // Invalidation barrier: arrivals before an update must see the old warm
  // flag, arrivals after it the cleared one.
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.update_rate = 0.2;
  ExpectFusionInvariant(config);
}

TEST(FusionTest, FusedMatchesUnfusedWithAdaptiveControllers) {
  // Controller barrier: the PullBW decision reads windowed queue counters.
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.adaptive_pull_bw = true;
  config.adaptive_threshold = true;
  ExpectFusionInvariant(config);
}

TEST(FusionTest, FusedMatchesUnfusedWithNoiseAndPrefetch) {
  // Exercises the MC-side barriers (prefetch scans, noisy value arrays).
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.noise = 0.3;
  config.mc_prefetch = true;
  ExpectFusionInvariant(config);
}

TEST(FusionTest, FusedMatchesUnfusedWithEveryClientSteady) {
  // NextBernoulli draws no uniform at SteadyStatePerc 0 or 1, so a refill
  // that always drew the coin would shift every later draw.
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.steady_state_perc = 1.0;
  ExpectFusionInvariant(config);
}

TEST(FusionTest, FusedMatchesUnfusedWithNoClientSteady) {
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.steady_state_perc = 0.0;
  ExpectFusionInvariant(config);
}

TEST(FusionTest, FusedMatchesUnfusedWhenADrainSpansSeveralRefills) {
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.think_time_ratio = 3000.0;
  const core::RunResult fused = ExpectFusionInvariant(config);
  // The load the case is for: drains longer than two of the VC's arrival
  // batches, so one drain runs several refills back to back.
  EXPECT_GT(fused.kernel.lazy_arrivals_fused,
            2 * client::VirtualClient::kArrivalBatch *
                fused.kernel.lazy_drains);
}

// Trace-level pins for the same invariant: the span assembler relies on the
// sink's record stream being globally timestamp-ordered, and fusion must
// not reorder (or re-time) a single record.

std::vector<obs::SpanRecord> TraceOfRun(core::SystemConfig config) {
  core::System system(config);
  // Big enough that the updates-plus-VC-heavy run never wraps: the
  // comparison below needs the complete stream, not the tail.
  obs::TraceSink sink(1 << 21);
  system.AttachTrace(&sink);
  system.RunSteadyState(ShortProtocol());
  EXPECT_EQ(sink.DroppedEvents(), 0U);
  return sink.Events();
}

TEST(FusionTraceTest, TimestampsAreGloballyNonDecreasingUnderFusion) {
  // Updates are the adversarial case: the update generator's wakeup must
  // drain pending fused VC arrivals before invalidating MC cache entries,
  // or those arrivals' records land after the invalidate with earlier
  // timestamps.
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.update_rate = 0.2;
  config.vc_fusion = true;
  const std::vector<obs::SpanRecord> events = TraceOfRun(config);
  ASSERT_GT(events.size(), 0U);
  EXPECT_GT(std::count_if(events.begin(), events.end(),
                          [](const obs::SpanRecord& r) {
                            return r.event == obs::SpanEvent::kInvalidate;
                          }),
            0);
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].time, events[i].time)
        << "record " << i << " (" << obs::SpanEventName(events[i].event)
        << ") went back in time";
  }
}

TEST(FusionTraceTest, FusedAndUnfusedRunsEmitIdenticalTraces) {
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.update_rate = 0.2;

  config.vc_fusion = true;
  const std::vector<obs::SpanRecord> fused = TraceOfRun(config);
  config.vc_fusion = false;
  const std::vector<obs::SpanRecord> unfused = TraceOfRun(config);

  ASSERT_EQ(fused.size(), unfused.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(fused[i].time, unfused[i].time) << "record " << i;
    ASSERT_EQ(fused[i].event, unfused[i].event) << "record " << i;
    ASSERT_EQ(fused[i].client, unfused[i].client) << "record " << i;
    ASSERT_EQ(fused[i].page, unfused[i].page) << "record " << i;
    ASSERT_EQ(fused[i].value, unfused[i].value) << "record " << i;
  }
}

TEST(FusionTraceTest, FusedAndUnfusedTracesMatchUnderShedding) {
  // Degraded-mode edges are stamped when a submit crosses the watermark;
  // a fused submit arrives at the drain barrier after its own time, so
  // the edge must carry the submit's time, as the oracle's does, or the
  // trace runs backwards.
  core::SystemConfig config = SmallLoadedConfig(core::DeliveryMode::kIpp);
  config.fault.shed_hi = 0.8;

  config.vc_fusion = true;
  const std::vector<obs::SpanRecord> fused = TraceOfRun(config);
  config.vc_fusion = false;
  const std::vector<obs::SpanRecord> unfused = TraceOfRun(config);

  EXPECT_GT(std::count_if(fused.begin(), fused.end(),
                          [](const obs::SpanRecord& r) {
                            return r.event == obs::SpanEvent::kDegradedEnter;
                          }),
            0);
  ASSERT_EQ(fused.size(), unfused.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(fused[i].time, unfused[i].time)
        << "record " << i << " (" << obs::SpanEventName(fused[i].event)
        << ")";
    ASSERT_EQ(fused[i].event, unfused[i].event) << "record " << i;
    ASSERT_EQ(fused[i].client, unfused[i].client) << "record " << i;
    ASSERT_EQ(fused[i].page, unfused[i].page) << "record " << i;
    ASSERT_EQ(fused[i].value, unfused[i].value) << "record " << i;
  }
}

// The run's trace as bdisk_sim --trace writes it, the sink's default ring
// of the last 256Ki records as JSONL: its FNV-1a digest and the count of
// every record.
std::pair<std::uint64_t, std::uint64_t> TraceDigestOfRun(
    core::SystemConfig config) {
  core::System system(config);
  obs::TraceSink sink;
  system.AttachTrace(&sink);
  system.RunSteadyState(ShortProtocol());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : sink.ToJsonl()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return {h, sink.TotalEvents()};
}

TEST(FusionTest, FusedMatchesUnfusedWithoutASpanTable) {
  // 1,000 pages over a 70,900-slot cycle: the span table would take
  // 8.45 MiB, past its 8 MiB cap, so the fused drain asks the server for
  // each arrival's push distance, as the oracle does.
  core::SystemConfig config;
  config.disks = broadcast::DiskConfig{{100, 900}, {700, 1}};
  config.think_time_ratio = 100.0;
  config.thres_perc = 0.1;
  config.seed = 20260806;
  {
    const core::System system(config);
    const std::uint32_t length = system.program().Length();
    ASSERT_EQ(length, 70900U);
    EXPECT_EQ(broadcast::CycleSpanTable::BuildIfFeasible(
                  system.program(),
                  client::ThresholdFilter(config.thres_perc, length)
                      .ThresholdSlots()),
              nullptr);
  }
  ExpectFusionInvariant(config);
  config.vc_fusion = true;
  const auto fused = TraceDigestOfRun(config);
  config.vc_fusion = false;
  EXPECT_EQ(TraceDigestOfRun(config), fused);
}

}  // namespace
}  // namespace bdisk
