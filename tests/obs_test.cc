#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "obs/json.h"
#include "obs/progress.h"
#include "obs/trace_sink.h"
#include "oracles.h"
#include "server/broadcast_server.h"
#include "sim/simulator.h"

namespace bdisk::obs {
namespace {

// ------------------------------------------------------------------ JSON

TEST(JsonTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonTest, WriterBuildsNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("n");
  w.Value(std::uint64_t{3});
  w.Key("xs");
  w.BeginArray();
  w.Value(1.5);
  w.Value(false);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"n\":3,\"xs\":[1.5,false]}");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonParseTest, ParsesScalarsAndNesting) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("{\"a\":1.5,\"b\":[true,null,\"x\\ny\"],\"c\":{}}",
                        &v));
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->number, 1.5);
  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3U);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(b->array[2].string, "x\ny");
  EXPECT_EQ(v.Find("c")->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("neg");
  w.Value(-2.25);
  w.Key("esc");
  w.Value(std::string("a\"b\\c"));
  w.EndObject();
  JsonValue v;
  ASSERT_TRUE(ParseJson(w.str(), &v));
  EXPECT_EQ(v.Find("neg")->number, -2.25);
  EXPECT_EQ(v.Find("esc")->string, "a\"b\\c");
}

TEST(JsonParseTest, ReportsErrorsWithOffsets) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("", &v, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseJson("{\"a\":}", &v, &error));
  EXPECT_NE(error.find("at byte"), std::string::npos);
  EXPECT_FALSE(ParseJson("[1,2", &v, &error));
  EXPECT_FALSE(ParseJson("{} trailing", &v, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
  // Depth bomb: more nesting than the parser's recursion bound.
  EXPECT_FALSE(ParseJson(std::string(100, '[') + std::string(100, ']'), &v,
                         &error));
}

// --------------------------------------------------------------- Registry

TEST(MetricsRegistryTest, ResolveOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("a.count");
  c->Inc(2);
  // Creating more metrics must not invalidate earlier pointers.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("a.count"), c);
  EXPECT_EQ(c->Value(), 2U);

  Gauge* g = registry.GetGauge("a.gauge");
  g->Set(1.5);
  EXPECT_EQ(registry.GetGauge("a.gauge")->Value(), 1.5);
}

TEST(MetricsRegistryTest, LatencyHistogramPercentilesAndReset) {
  LatencyHistogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.Add(i + 0.5);
  EXPECT_EQ(h.Count(), 100U);
  EXPECT_NEAR(h.Percentile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.Percentile(0.99), 99.0, 1.5);
  EXPECT_DOUBLE_EQ(h.Max(), 99.5);
  h.Reset();
  EXPECT_EQ(h.Count(), 0U);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(MetricsRegistryTest, LatencyHistogramResetPreservesShape) {
  // The windowed collector resets its per-window histogram in place every
  // window; the bucket shape (and thus percentile resolution) must be
  // exactly what the constructor set, forever.
  LatencyHistogram h(0.0, 100.0, 100);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) h.Add(i + 0.5);
    EXPECT_EQ(h.Count(), 100U);
    EXPECT_NEAR(h.Percentile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.Percentile(0.99), 99.0, 1.5);
    EXPECT_EQ(h.histogram().NumBuckets(), 100U);
    EXPECT_EQ(h.histogram().Underflow(), 0U);
    EXPECT_EQ(h.histogram().Overflow(), 0U);
    h.Reset();
    EXPECT_EQ(h.Count(), 0U);
    EXPECT_EQ(h.histogram().NumBuckets(), 100U);
  }
}

TEST(MetricsRegistryTest, ToJsonCarriesEverySection) {
  MetricsRegistry registry;
  registry.GetCounter("server.slots_total")->Set(42);
  registry.GetGauge("server.pull_bw")->Set(0.5);
  registry.GetStats("cache.evict_value")->Add(2.0);
  LatencyHistogram response(0.0, 10.0, 10);
  response.Add(3.0);
  registry.ExportHistogram("client.response", response);
  registry.GetTimeSeries("server.queue_depth")->Add(1.0, 4.0);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"schema\":\"bdisk-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"server.slots_total\":42"), std::string::npos);
  EXPECT_NE(json.find("\"server.pull_bw\""), std::string::npos);
  EXPECT_NE(json.find("\"cache.evict_value\""), std::string::npos);
  EXPECT_NE(json.find("\"client.response\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"server.queue_depth\":[[1,4]]"), std::string::npos);
}

// -------------------------------------------------------------- TraceSink

TEST(TraceSinkTest, RingInvariantHoldsUnderOverflow) {
  TraceSink sink(4);
  for (std::uint32_t i = 0; i < 20; ++i) {
    sink.Record(static_cast<double>(i), SpanEvent::kRequest,
                kMeasuredClientId, i);
    EXPECT_EQ(sink.DroppedEvents() + sink.Events().size(),
              sink.TotalEvents());
  }
  EXPECT_EQ(sink.TotalEvents(), 20U);
  EXPECT_EQ(sink.DroppedEvents(), 16U);
  EXPECT_EQ(sink.Events().front().page, 16U);
  EXPECT_EQ(sink.Events().back().page, 19U);
}

TEST(TraceSinkTest, JsonlUsesSignedSentinels) {
  TraceSink sink;
  sink.Record(2.0, SpanEvent::kDelivery, kMeasuredClientId, 5, 2.0);
  sink.Record(3.0, SpanEvent::kSlotIdle, kNoClient, kNoTracePage);
  const std::string jsonl = sink.ToJsonl();
  EXPECT_NE(jsonl.find(
                "{\"t\":2.000,\"ev\":\"delivery\",\"client\":0,\"page\":5"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\":\"slot_idle\",\"client\":-1,\"page\":-1"),
            std::string::npos);
}

TEST(TraceSinkTest, WrapKeepsOldestFirstOrder) {
  TraceSink sink(4);
  for (std::uint32_t i = 0; i < 11; ++i) {
    sink.Record(static_cast<double>(i), SpanEvent::kRequest,
                kMeasuredClientId, i);
  }
  // 11 records through a 4-slot ring: exactly the last 4 survive, oldest
  // first, with strictly increasing timestamps across the wrap point.
  const std::vector<SpanRecord> events = sink.Events();
  ASSERT_EQ(events.size(), 4U);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].page, 7 + i);
    EXPECT_DOUBLE_EQ(events[i].time, 7.0 + i);
  }
  EXPECT_EQ(sink.DroppedEvents(), 7U);
}

TEST(TraceSinkTest, JsonlRoundTripsEveryEventKind) {
  TraceSink sink;
  const auto kinds = static_cast<std::uint8_t>(SpanEvent::kMaxValue);
  for (std::uint8_t k = 0; k < kinds; ++k) {
    const auto event = static_cast<SpanEvent>(k);
    // Exercise the sentinels on the slot/idle kinds, real ids elsewhere.
    const bool server_side = event == SpanEvent::kSlotIdle;
    sink.Record(0.125 * (k + 1), event,
                server_side ? kNoClient : kMeasuredClientId,
                server_side ? kNoTracePage : 40U + k, 0.5 * k);
  }
  const std::string jsonl = sink.ToJsonl();
  std::vector<SpanRecord> parsed;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    SpanRecord record{};
    ASSERT_TRUE(
        ParseTraceJsonlLine(jsonl.substr(start, end - start), &record))
        << jsonl.substr(start, end - start);
    parsed.push_back(record);
    start = end + 1;
  }
  const std::vector<SpanRecord> original = sink.Events();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].event, original[i].event);
    EXPECT_EQ(parsed[i].client, original[i].client);
    EXPECT_EQ(parsed[i].page, original[i].page);
    EXPECT_DOUBLE_EQ(parsed[i].time, original[i].time);
    EXPECT_DOUBLE_EQ(parsed[i].value, original[i].value);
  }
}

TEST(TraceSinkTest, ParseRejectsMalformedLines) {
  SpanRecord record{};
  EXPECT_FALSE(ParseTraceJsonlLine("", &record));
  EXPECT_FALSE(ParseTraceJsonlLine("not json", &record));
  EXPECT_FALSE(ParseTraceJsonlLine(
      "{\"t\":1.000,\"ev\":\"bogus\",\"client\":0,\"page\":1,\"v\":0}",
      &record));
}

TEST(TraceSinkTest, EventNamesAreStable) {
  EXPECT_STREQ(SpanEventName(SpanEvent::kSubmitCoalesced),
               "submit_coalesced");
  EXPECT_STREQ(SpanEventName(SpanEvent::kSlotPull), "slot_pull");
  EXPECT_STREQ(SpanEventName(SpanEvent::kDelivery), "delivery");
}

TEST(ServerTraceTest, SlotAndRequestEventsRecorded) {
  sim::Simulator sim;
  server::BroadcastServer server(
      &sim, Share(broadcast::BroadcastProgram({0, 1}, 4)), 0.5, 1,
      sim::Rng(1));
  TraceSink sink;
  server.SetTraceSink(&sink);

  server.SubmitRequest(3);  // Accepted.
  server.SubmitRequest(3);  // Coalesced.
  server.SubmitRequest(2);  // Dropped (capacity 1).
  sim.RunUntil(10.0);

  EXPECT_EQ(CountOf(sink, SpanEvent::kSubmitAccepted), 1U);
  EXPECT_EQ(CountOf(sink, SpanEvent::kSubmitCoalesced), 1U);
  EXPECT_EQ(CountOf(sink, SpanEvent::kSubmitDropped), 1U);
  // Slot decisions after attach: pushes plus exactly one pull (page 3).
  EXPECT_EQ(CountOf(sink, SpanEvent::kSlotPull), 1U);
  EXPECT_GT(CountOf(sink, SpanEvent::kSlotPush), 5U);

  // The trace agrees with the server's own counters (minus the slot
  // chosen at construction, before the sink was attached).
  EXPECT_EQ(CountOf(sink, SpanEvent::kSlotPush) +
                CountOf(sink, SpanEvent::kSlotPull) +
                CountOf(sink, SpanEvent::kSlotIdle) + 1,
            server.TotalSlots());
}

// --------------------------------------------------------------- Progress

TEST(ProgressReporterTest, HeartbeatsRescheduleThemselves) {
  sim::Simulator simulator;
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ProgressReporter reporter(&simulator, 10.0, out);
  reporter.SetFractionCallback([&simulator] {
    return std::min(1.0, simulator.Now() / 100.0);
  });
  reporter.Start();
  simulator.RunUntil(100.0);
  // One heartbeat every 10 units, each rescheduling the next.
  EXPECT_EQ(simulator.EventsExecuted(), 10U);
  std::fclose(out);
}

// ------------------------------------------------------- System integration

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

TEST(SystemObservabilityTest, RunResultCarriesOrderedPercentiles) {
  core::System system(SmallConfig());
  const core::RunResult result = system.RunSteadyState(QuickProtocol());
  EXPECT_GT(result.response_stats.Count(), 0U);
  EXPECT_LE(result.response_p50, result.response_p90);
  EXPECT_LE(result.response_p90, result.response_p95);
  EXPECT_LE(result.response_p95, result.response_p99);
  EXPECT_LE(result.response_p99, result.response_max + 1e-9);
  EXPECT_DOUBLE_EQ(result.response_max, result.response_stats.Max());
  // The histogram and the exact stats describe the same sample set.
  EXPECT_EQ(system.mc().response_histogram().Count(),
            result.response_stats.Count());
  // Kernel profile is always populated.
  EXPECT_GT(result.kernel.events_executed, 0U);
  EXPECT_GT(result.kernel.periodic_rearms, 0U);
  EXPECT_GT(result.kernel.heap_high_water, 0U);
  EXPECT_GT(result.kernel.wall_seconds, 0.0);
}

TEST(SystemObservabilityTest, AttachingObservabilityIsTrajectoryNeutral) {
  // The design invariant behind keeping goldens green: metrics and trace
  // attachment must not change a single simulated decision.
  core::System plain(SmallConfig());
  const core::RunResult base = plain.RunSteadyState(QuickProtocol());

  core::System observed(SmallConfig());
  MetricsRegistry registry;
  TraceSink sink;
  observed.AttachMetrics(&registry);
  observed.AttachTrace(&sink);
  const core::RunResult traced = observed.RunSteadyState(QuickProtocol());

  EXPECT_EQ(traced.kernel.events_executed, base.kernel.events_executed);
  EXPECT_EQ(traced.mean_response, base.mean_response);
  EXPECT_EQ(traced.response_stats.Count(), base.response_stats.Count());
  EXPECT_EQ(traced.requests_submitted, base.requests_submitted);
  EXPECT_EQ(traced.sim_time_end, base.sim_time_end);
}

TEST(SystemObservabilityTest, SnapshotAgreesWithComponentCounters) {
  core::System system(SmallConfig());
  MetricsRegistry registry;
  TraceSink sink;
  system.AttachMetrics(&registry);
  system.AttachTrace(&sink);
  const core::RunResult result = system.RunSteadyState(QuickProtocol());
  system.SnapshotMetrics(&registry);

  EXPECT_EQ(registry.counters().at("server.queue.submitted").Value(),
            result.requests_submitted);
  EXPECT_EQ(registry.counters().at("client.mc.accesses").Value(),
            result.mc_accesses);
  EXPECT_EQ(registry.counters().at("kernel.events_executed").Value(),
            result.kernel.events_executed);
  EXPECT_EQ(registry.counters().at("client.vc.submitted").Value(),
            result.vc_submitted);
  EXPECT_EQ(registry.gauges().at("server.queue.depth_high_water").Value(),
            static_cast<double>(result.queue_depth_high_water));
  // Eviction-value stream: one sample per policy eviction while attached.
  EXPECT_EQ(registry.stats().at("client.mc.cache.evict_value").Count(),
            result.mc_cache_evictions);
  // Windowed time-series were published by the server.
  EXPECT_FALSE(registry.time_series().at("server.push_frac").empty());
  EXPECT_EQ(registry.time_series().at("server.push_frac").size(),
            registry.time_series().at("server.queue_depth").size());
  // The exported response histogram matches the measured window.
  EXPECT_EQ(registry.histograms().at("client.mc.response").Count(),
            result.response_stats.Count());

  // The trace contains the full request life cycle.
  EXPECT_GT(CountOf(sink, SpanEvent::kRequest), 0U);
  EXPECT_GT(CountOf(sink, SpanEvent::kCacheMiss), 0U);
  EXPECT_GT(CountOf(sink, SpanEvent::kSubmitAccepted), 0U);
  EXPECT_GT(CountOf(sink, SpanEvent::kSlotPush), 0U);
  EXPECT_GT(CountOf(sink, SpanEvent::kDelivery), 0U);
}

TEST(SystemObservabilityTest, QueueDepthHighWaterBoundsAndNonZero) {
  core::SystemConfig config = SmallConfig();
  config.think_time_ratio = 50.0;  // Enough load to queue requests.
  core::System system(config);
  const core::RunResult result = system.RunSteadyState(QuickProtocol());
  EXPECT_GT(result.queue_depth_high_water, 0U);
  EXPECT_LE(result.queue_depth_high_water, config.server_queue_size);
}

}  // namespace
}  // namespace bdisk::obs
