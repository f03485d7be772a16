#include "obs/windowed_collector.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "oracles.h"

namespace bdisk::obs {
namespace {

TEST(WindowedCollectorTest, AggregatesOneWindow) {
  WindowedCollector collector(/*window=*/10.0);
  collector.OnSlot(0.0, SpanEvent::kSlotPush, 2);
  collector.OnSlot(1.0, SpanEvent::kSlotPull, 3);
  collector.OnSlot(2.0, SpanEvent::kSlotIdle, 0);
  collector.OnSubmit(2.5, SpanEvent::kSubmitAccepted, 4);
  collector.OnSubmit(2.5, SpanEvent::kSubmitCoalesced, 4);
  collector.OnSubmit(3.0, SpanEvent::kSubmitDropped, 4);
  collector.OnSubmit(3.0, SpanEvent::kSubmitDropped, 4);
  collector.OnResponse(4.0, 1.0);
  collector.OnResponse(5.0, 3.0);
  collector.Finish();

  const std::vector<WindowStats> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 1U);
  const WindowStats& w = windows[0];
  EXPECT_DOUBLE_EQ(w.start, 0.0);
  EXPECT_DOUBLE_EQ(w.end, 10.0);
  EXPECT_EQ(w.slots_push, 1U);
  EXPECT_EQ(w.slots_pull, 1U);
  EXPECT_EQ(w.slots_idle, 1U);
  EXPECT_DOUBLE_EQ(w.PushFrac(), 1.0 / 3.0);
  EXPECT_EQ(w.submits, 4U);
  EXPECT_EQ(w.dropped, 2U);
  EXPECT_DOUBLE_EQ(w.DropRate(), 0.5);
  EXPECT_EQ(w.queue_depth_max, 4U);
  EXPECT_EQ(w.responses, 2U);
  EXPECT_DOUBLE_EQ(w.response_mean, 2.0);
  EXPECT_DOUBLE_EQ(w.response_max, 3.0);
  EXPECT_GT(w.response_p99, 0.0);
}

TEST(WindowedCollectorTest, FaultOutcomesCountApartFromQueueDrops) {
  WindowedCollector collector(/*window=*/10.0);
  collector.OnSubmit(1.0, SpanEvent::kSubmitShed, 2);
  collector.OnSubmit(2.0, SpanEvent::kSubmitOutage, 2);
  collector.OnSubmit(3.0, SpanEvent::kSubmitOutage, 2);
  collector.OnSubmit(4.0, SpanEvent::kSubmitLost, 2);
  collector.OnSlot(5.0, SpanEvent::kSlotPush, 2);
  collector.OnSlotLoss(6.0);
  collector.Finish();

  const std::vector<WindowStats> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 1U);
  const WindowStats& w = windows[0];
  EXPECT_EQ(w.submits, 4U);
  EXPECT_EQ(w.shed, 1U);
  EXPECT_EQ(w.outage_dropped, 2U);
  EXPECT_EQ(w.lost, 1U);
  EXPECT_EQ(w.dropped, 0U);
  EXPECT_DOUBLE_EQ(w.ShedRate(), 0.75);
  EXPECT_DOUBLE_EQ(w.LossRate(), 1.0);
}

TEST(WindowedCollectorTest, WindowGridIsAnchoredAndGapsEmitEmptyWindows) {
  WindowedCollector collector(/*window=*/10.0);
  collector.OnSlot(12.0, SpanEvent::kSlotPush, 0);  // Opens [10, 20).
  collector.OnSlot(47.0, SpanEvent::kSlotPull, 0);  // Skips two empty windows.
  collector.Finish();

  const std::vector<WindowStats> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 4U);
  EXPECT_DOUBLE_EQ(windows[0].start, 10.0);
  EXPECT_EQ(windows[0].slots_push, 1U);
  // The quiet stretch is represented honestly, not silently skipped.
  EXPECT_DOUBLE_EQ(windows[1].start, 20.0);
  EXPECT_EQ(windows[1].Slots(), 0U);
  EXPECT_DOUBLE_EQ(windows[2].start, 30.0);
  EXPECT_DOUBLE_EQ(windows[3].start, 40.0);
  EXPECT_EQ(windows[3].slots_pull, 1U);
}

TEST(WindowedCollectorTest, QueueDepthKeepsLastAndHighWater) {
  WindowedCollector collector(/*window=*/10.0);
  collector.OnSubmit(1.0, SpanEvent::kSubmitAccepted, 7);
  collector.OnSubmit(2.0, SpanEvent::kSubmitAccepted, 3);
  collector.Finish();
  const std::vector<WindowStats> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 1U);
  EXPECT_EQ(windows[0].queue_depth, 3U);      // Last observed.
  EXPECT_EQ(windows[0].queue_depth_max, 7U);  // High water.
}

TEST(WindowedCollectorTest, PerWindowPercentilesResetBetweenWindows) {
  WindowedCollector collector(/*window=*/10.0);
  for (int i = 0; i < 100; ++i) collector.OnResponse(5.0, 100.0);
  for (int i = 0; i < 100; ++i) collector.OnResponse(15.0, 1.0);
  collector.Finish();
  const std::vector<WindowStats> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 2U);
  // Were the histogram not reset, the second window's p99 would still see
  // the first window's 100s.
  EXPECT_GT(windows[0].response_p50, 50.0);
  EXPECT_LT(windows[1].response_p99, 50.0);
}

TEST(WindowedCollectorTest, RingEvictsOldestBeyondCapacity) {
  WindowedCollector collector(/*window=*/1.0, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    collector.OnSlot(static_cast<double>(i), SpanEvent::kSlotPush, 0);
  }
  collector.Finish();
  EXPECT_EQ(collector.WindowsCompleted(), 10U);
  EXPECT_EQ(collector.WindowsEvicted(), 6U);
  const std::vector<WindowStats> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 4U);
  EXPECT_DOUBLE_EQ(windows.front().start, 6.0);
  EXPECT_DOUBLE_EQ(windows.back().start, 9.0);
}

TEST(WindowedCollectorTest, PublishToEmitsSeriesAndGauges) {
  WindowedCollector collector(/*window=*/10.0);
  collector.OnSlot(1.0, SpanEvent::kSlotPush, 1);
  collector.OnSlot(11.0, SpanEvent::kSlotPull, 2);
  collector.Finish();

  MetricsRegistry registry;
  collector.PublishTo(&registry);
  EXPECT_DOUBLE_EQ(registry.gauges().at("window.width").Value(), 10.0);
  EXPECT_DOUBLE_EQ(registry.gauges().at("window.count").Value(), 2.0);
  const auto& push_frac = registry.time_series().at("window.push_frac");
  ASSERT_EQ(push_frac.size(), 2U);
  EXPECT_DOUBLE_EQ(push_frac.samples()[0].time, 0.0);  // Window start.
  EXPECT_DOUBLE_EQ(push_frac.samples()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(push_frac.samples()[1].value, 0.0);
  EXPECT_EQ(registry.time_series().at("window.drop_rate").size(), 2U);
  EXPECT_EQ(registry.time_series().at("window.response_p99").size(), 2U);
}

// ------------------------------------------------------- full-system runs

core::SystemConfig SmallConfig() {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 25.0;
  config.seed = 7;
  return config;
}

core::SteadyStateProtocol QuickProtocol() {
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 200;
  protocol.min_measured_accesses = 500;
  protocol.max_measured_accesses = 2000;
  protocol.batch_size = 250;
  protocol.tolerance = 0.1;
  return protocol;
}

TEST(WindowedCollectorIntegrationTest, SystemRunFillsConsistentWindows) {
  core::System system(SmallConfig());
  WindowedCollector collector(/*window=*/100.0);
  system.AttachWindowedCollector(&collector);
  const core::RunResult result = system.RunSteadyState(QuickProtocol());

  const std::vector<WindowStats> windows = collector.Windows();
  ASSERT_GT(windows.size(), 1U);
  std::uint64_t slots = 0;
  std::uint64_t responses = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    slots += windows[i].Slots();
    responses += windows[i].responses;
    if (i > 0) {
      EXPECT_DOUBLE_EQ(windows[i].start, windows[i - 1].end);
    }
    EXPECT_LE(windows[i].queue_depth_max, 10U);
  }
  // Every slot decision made while attached landed in exactly one window
  // (the final partial window is closed at run end). The server makes its
  // very first decision in its constructor, before anything can attach, so
  // the collector sees exactly one fewer.
  EXPECT_EQ(slots, system.server().TotalSlots() - 1);
  // Responses cover warm-up and measurement alike, so at least the
  // measured accesses are there.
  EXPECT_GE(responses, result.response_stats.Count());

  // The snapshot carries the windowed series.
  MetricsRegistry registry;
  system.SnapshotMetrics(&registry);
  EXPECT_EQ(registry.time_series().at("window.drop_rate").size(),
            windows.size());
}

// The server feeds the trace sink and the collector the same event for
// every slot decision and submit outcome, fault outcomes included.
TEST(WindowedCollectorIntegrationTest, SinkAndCollectorSeeTheSameEvents) {
  core::SystemConfig config = SmallConfig();
  config.think_time_ratio = 250.0;
  config.fault.slot_loss = 0.05;
  config.fault.request_loss = 0.05;
  config.fault.request_delay = 2.0;
  config.fault.outage_start = 500.0;
  config.fault.outage_duration = 300.0;
  config.fault.outage_period = 3000.0;
  config.fault.shed_hi = 0.8;
  core::System system(config);
  // The sink retains the whole run (~1.1M records), so counting its
  // records counts every event.
  TraceSink sink(/*capacity=*/1 << 21);
  WindowedCollector collector(/*window=*/100.0);
  system.AttachTrace(&sink);
  system.AttachWindowedCollector(&collector);
  const core::RunResult result = system.RunSteadyState(QuickProtocol());
  collector.Finish();

  WindowStats total;
  for (const WindowStats& w : collector.Windows()) {
    total.slots_push += w.slots_push;
    total.slots_pull += w.slots_pull;
    total.slots_idle += w.slots_idle;
    total.accepted += w.accepted;
    total.coalesced += w.coalesced;
    total.dropped += w.dropped;
    total.shed += w.shed;
    total.outage_dropped += w.outage_dropped;
    total.lost += w.lost;
  }
  ASSERT_EQ(collector.WindowsEvicted(), 0U);
  ASSERT_EQ(sink.DroppedEvents(), 0U);
  EXPECT_EQ(total.slots_push, CountOf(sink, SpanEvent::kSlotPush));
  EXPECT_EQ(total.slots_pull, CountOf(sink, SpanEvent::kSlotPull));
  EXPECT_EQ(total.slots_idle, CountOf(sink, SpanEvent::kSlotIdle));
  EXPECT_EQ(total.accepted, CountOf(sink, SpanEvent::kSubmitAccepted));
  EXPECT_EQ(total.coalesced, CountOf(sink, SpanEvent::kSubmitCoalesced));
  EXPECT_EQ(total.dropped, CountOf(sink, SpanEvent::kSubmitDropped));
  EXPECT_EQ(total.shed, CountOf(sink, SpanEvent::kSubmitShed));
  EXPECT_EQ(total.outage_dropped, CountOf(sink, SpanEvent::kSubmitOutage));
  EXPECT_EQ(total.lost, CountOf(sink, SpanEvent::kSubmitLost));
  // Both agree with the server's own books, and each fault kind occurred,
  // so a kind mapped to the wrong event shows.
  EXPECT_EQ(total.accepted, result.requests_accepted);
  EXPECT_EQ(total.coalesced, result.requests_coalesced);
  EXPECT_EQ(total.dropped, result.requests_dropped);
  EXPECT_EQ(total.shed, result.requests_shed);
  EXPECT_EQ(total.outage_dropped, result.requests_dropped_outage);
  EXPECT_EQ(total.lost, result.fault_requests_lost);
  EXPECT_GT(total.shed, 0U);
  EXPECT_GT(total.outage_dropped, 0U);
  EXPECT_GT(total.lost, 0U);
  EXPECT_GT(total.slots_idle, 0U);
}

TEST(WindowedCollectorIntegrationTest, AttachingCollectorIsTrajectoryNeutral) {
  core::System plain(SmallConfig());
  const core::RunResult base = plain.RunSteadyState(QuickProtocol());

  core::System observed(SmallConfig());
  WindowedCollector collector(/*window=*/50.0);
  observed.AttachWindowedCollector(&collector);
  const core::RunResult with = observed.RunSteadyState(QuickProtocol());

  EXPECT_EQ(with.kernel.events_executed, base.kernel.events_executed);
  EXPECT_EQ(with.mean_response, base.mean_response);
  EXPECT_EQ(with.response_stats.Count(), base.response_stats.Count());
  EXPECT_EQ(with.requests_submitted, base.requests_submitted);
  EXPECT_EQ(with.sim_time_end, base.sim_time_end);
}

}  // namespace
}  // namespace bdisk::obs
