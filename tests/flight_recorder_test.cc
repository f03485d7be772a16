#include "obs/flight_recorder.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "obs/json.h"
#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"

namespace bdisk::obs {
namespace {

// ----------------------------------------------------------- trigger spec

TEST(FlightTriggerSpecTest, ParsesFullSpec) {
  FlightTriggers t;
  EXPECT_EQ(ParseFlightTriggerSpec("drop_rate>0.5, p99>2000,queue_depth>90",
                                   &t),
            "");
  EXPECT_DOUBLE_EQ(t.drop_rate, 0.5);
  EXPECT_DOUBLE_EQ(t.p99, 2000.0);
  EXPECT_DOUBLE_EQ(t.queue_depth, 90.0);
  EXPECT_TRUE(t.Armed());
}

TEST(FlightTriggerSpecTest, UnnamedTriggersStayDisarmed) {
  FlightTriggers t;
  EXPECT_EQ(ParseFlightTriggerSpec("p99>100", &t), "");
  EXPECT_EQ(t.drop_rate, FlightTriggers::kDisarmed);
  EXPECT_EQ(t.queue_depth, FlightTriggers::kDisarmed);
  EXPECT_DOUBLE_EQ(t.p99, 100.0);
}

TEST(FlightTriggerSpecTest, ErrorMessagesAreSpecific) {
  FlightTriggers t;
  EXPECT_EQ(ParseFlightTriggerSpec("", &t),
            "empty trigger spec (want e.g. \"drop_rate>0.5,p99>2000\")");
  EXPECT_EQ(ParseFlightTriggerSpec("p99=3", &t),
            "trigger \"p99=3\" is missing '>' (want name>threshold)");
  EXPECT_EQ(ParseFlightTriggerSpec("p99>abc", &t),
            "trigger \"p99\" has unparsable threshold \"abc\"");
  EXPECT_EQ(ParseFlightTriggerSpec("p99>-1", &t),
            "trigger \"p99\" threshold must be >= 0");
  EXPECT_EQ(ParseFlightTriggerSpec("bogus>1", &t),
            "unknown trigger \"bogus\" (know drop_rate, p99, queue_depth, "
            "shed_rate, loss_rate)");
  EXPECT_EQ(ParseFlightTriggerSpec("p99>1,p99>2", &t),
            "trigger \"p99\" given twice");
}

TEST(FlightTriggerSpecTest, RefusesNonFiniteThresholds) {
  FlightTriggers t;
  EXPECT_EQ(ParseFlightTriggerSpec("p99>nan", &t),
            "trigger \"p99\" threshold must be finite");
  EXPECT_EQ(ParseFlightTriggerSpec("drop_rate>inf", &t),
            "trigger \"drop_rate\" threshold must be finite");
  EXPECT_EQ(ParseFlightTriggerSpec("queue_depth>-inf", &t),
            "trigger \"queue_depth\" threshold must be finite");
  // An infinite first threshold would equal kDisarmed and let the second
  // one past the given-twice check.
  EXPECT_EQ(ParseFlightTriggerSpec("p99>inf,p99>5", &t),
            "trigger \"p99\" threshold must be finite");
  EXPECT_EQ(ParseFlightTriggerSpec("p99>2000", &t), "");
  EXPECT_DOUBLE_EQ(t.p99, 2000.0);
}

TEST(FlightTriggerSpecTest, RefusesBytesAfterTheThreshold) {
  FlightTriggers t;
  EXPECT_EQ(ParseFlightTriggerSpec("p99>5x", &t),
            "trigger \"p99\" has unparsable threshold \"5x\"");
  // strtod stops at a NUL; the threshold must not read as 5, and the
  // echo shows the NUL rather than ending at it.
  const std::string nul_inside("p99>5\0x", 7);
  EXPECT_EQ(ParseFlightTriggerSpec(nul_inside, &t),
            "trigger \"p99\" has unparsable threshold \"5\\x00x\"");
  EXPECT_EQ(t.p99, FlightTriggers::kDisarmed);
}

TEST(FlightTriggerSpecTest, EscapesBytesBeforeTheThreshold) {
  FlightTriggers t;
  EXPECT_EQ(ParseFlightTriggerSpec(std::string("p9\09>5", 6), &t),
            "unknown trigger \"p9\\x009\" (know drop_rate, p99, queue_depth, "
            "shed_rate, loss_rate)");
  EXPECT_EQ(ParseFlightTriggerSpec(std::string("p99\0=3", 6), &t),
            "trigger \"p99\\x00=3\" is missing '>' (want name>threshold)");
  EXPECT_EQ(ParseFlightTriggerSpec("p99\x7f>\x01", &t),
            "trigger \"p99\\x7f\" has unparsable threshold \"\\x01\"");
}

// -------------------------------------------------------------- recorder

WindowStats QuietWindow(double start) {
  WindowStats w;
  w.start = start;
  w.end = start + 100.0;
  w.slots_push = 90;
  w.slots_pull = 10;
  w.submits = 10;
  w.accepted = 10;
  return w;
}

TEST(FlightRecorderTest, FiresOnceOnThresholdCrossingAndRearms) {
  FlightTriggers triggers;
  triggers.drop_rate = 0.25;
  FlightRecorder recorder(triggers, "unused-prefix-");

  recorder.OnWindow(QuietWindow(0.0));
  EXPECT_FALSE(recorder.Fired());

  WindowStats bad = QuietWindow(100.0);
  bad.submits = 10;
  bad.accepted = 5;
  bad.dropped = 5;  // Drop rate 0.5 > 0.25.
  recorder.OnWindow(bad);
  EXPECT_TRUE(recorder.Fired());
  EXPECT_EQ(recorder.FireCount(), 1U);

  // One-shot: later (worse) windows do not fire again...
  bad.start = 200.0;
  bad.end = 300.0;
  bad.dropped = 9;
  bad.accepted = 1;
  recorder.OnWindow(bad);
  EXPECT_EQ(recorder.FireCount(), 1U);
  EXPECT_EQ(recorder.WindowsEvaluated(), 3U);

  // ...until explicitly re-armed.
  recorder.Rearm();
  recorder.OnWindow(bad);
  EXPECT_EQ(recorder.FireCount(), 2U);
}

TEST(FlightRecorderTest, MultiShotRearmsItselfUntilDumpBudgetSpent) {
  FlightTriggers triggers;
  triggers.drop_rate = 0.25;
  FlightRecorder recorder(triggers, "flight_multi_test_", /*max_dumps=*/3);
  EXPECT_EQ(recorder.MaxDumps(), 3U);

  WindowStats bad = QuietWindow(0.0);
  bad.submits = 10;
  bad.accepted = 5;
  bad.dropped = 5;  // Drop rate 0.5 > 0.25 on every window below.

  std::vector<std::string> dump_paths;
  for (int shot = 1; shot <= 3; ++shot) {
    recorder.OnWindow(bad);
    EXPECT_EQ(recorder.FireCount(), static_cast<std::uint64_t>(shot));
    // Self re-arms between dumps; disarmed only once the budget is spent.
    EXPECT_EQ(recorder.Fired(), shot == 3);
    dump_paths.push_back(recorder.DumpPath());
    bad.start += 100.0;
    bad.end += 100.0;
  }
  // Budget spent: a fourth bad window does not fire.
  recorder.OnWindow(bad);
  EXPECT_EQ(recorder.FireCount(), 3U);

  // Each shot wrote its own file (distinct window-end timestamps).
  EXPECT_NE(dump_paths[0], dump_paths[1]);
  EXPECT_NE(dump_paths[1], dump_paths[2]);
  for (const std::string& path : dump_paths) {
    std::ifstream file(path);
    EXPECT_TRUE(file.good()) << path;
    std::remove(path.c_str());
  }

  // Rearm() still grants one more fire after the budget is spent.
  recorder.Rearm();
  bad.start += 100.0;
  bad.end += 100.0;
  recorder.OnWindow(bad);
  EXPECT_EQ(recorder.FireCount(), 4U);
  EXPECT_TRUE(recorder.Fired());
  std::remove(recorder.DumpPath().c_str());
}

TEST(FlightRecorderTest, DumpCarriesWindowTriggerMetricsAndTrace) {
  FlightTriggers triggers;
  triggers.queue_depth = 3.0;
  FlightRecorder recorder(triggers, "unused-prefix-");

  TraceSink sink;
  sink.Record(40.0, SpanEvent::kRequest, kMeasuredClientId, 7);   // Before.
  sink.Record(120.0, SpanEvent::kSlotPull, kNoClient, 7);         // Inside.
  sink.Record(121.0, SpanEvent::kDelivery, kMeasuredClientId, 7, 2.0);
  recorder.SetTraceSink(&sink);
  recorder.SetSnapshot([] {
    return std::string("{\"schema\":\"bdisk-metrics-v1\",\"counters\":{}}");
  });

  WindowStats w = QuietWindow(100.0);
  w.queue_depth_max = 8;
  const std::string dump = recorder.BuildDump(w, "queue_depth", 3.0, 8.0);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(dump, &root, &error)) << error;
  EXPECT_EQ(root.Find("schema")->string, "bdisk-flight-v1");
  EXPECT_EQ(root.Find("trigger")->string, "queue_depth");
  EXPECT_DOUBLE_EQ(root.Find("threshold")->number, 3.0);
  EXPECT_DOUBLE_EQ(root.Find("value")->number, 8.0);
  const JsonValue* window = root.Find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_DOUBLE_EQ(window->Find("start")->number, 100.0);
  EXPECT_DOUBLE_EQ(window->Find("queue_depth_max")->number, 8.0);
  EXPECT_EQ(root.Find("metrics")->Find("schema")->string,
            "bdisk-metrics-v1");
  // Only the trailing window's trace records are dumped.
  const JsonValue* trace = root.Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->array.size(), 2U);
  EXPECT_DOUBLE_EQ(trace->array[0].Find("t")->number, 120.0);
  EXPECT_EQ(trace->array[1].Find("ev")->string, "delivery");
}

TEST(FlightRecorderTest, DumpWithoutSourcesIsStillWellFormed) {
  FlightTriggers triggers;
  triggers.p99 = 1.0;
  FlightRecorder recorder(triggers, "unused-prefix-");
  const std::string dump = recorder.BuildDump(QuietWindow(0.0), "p99", 1.0,
                                              2.0);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(dump, &root, &error)) << error;
  EXPECT_EQ(root.Find("metrics")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(root.Find("trace")->array.empty());
}

// ------------------------------------------------------- full-system runs

core::SteadyStateProtocol QuickProtocol() {
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 200;
  protocol.min_measured_accesses = 500;
  protocol.max_measured_accesses = 2000;
  protocol.batch_size = 250;
  protocol.tolerance = 0.1;
  return protocol;
}

TEST(FlightRecorderIntegrationTest, SaturatedRunFiresAndWritesDump) {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 2;  // Tiny queue under heavy load: must trip.
  config.mc_think_time = 5.0;
  config.think_time_ratio = 2.0;
  config.seed = 7;
  core::System system(config);

  MetricsRegistry registry;
  TraceSink sink;
  WindowedCollector collector(/*window=*/50.0);
  FlightTriggers triggers;
  triggers.queue_depth = 1.0;
  FlightRecorder recorder(triggers, "flight_recorder_test_");
  system.AttachMetrics(&registry);
  system.AttachTrace(&sink);
  system.AttachWindowedCollector(&collector);
  system.AttachFlightRecorder(&recorder);
  system.RunSteadyState(QuickProtocol());

  ASSERT_TRUE(recorder.Fired());
  EXPECT_EQ(recorder.LastError(), "");
  ASSERT_FALSE(recorder.DumpPath().empty());

  std::ifstream file(recorder.DumpPath());
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(buffer.str(), &root, &error)) << error;
  EXPECT_EQ(root.Find("schema")->string, "bdisk-flight-v1");
  EXPECT_EQ(root.Find("trigger")->string, "queue_depth");
  // The dump embeds a live registry snapshot and a non-empty trace tail.
  EXPECT_EQ(root.Find("metrics")->Find("schema")->string,
            "bdisk-metrics-v1");
  EXPECT_GT(root.Find("trace")->array.size(), 0U);
  std::remove(recorder.DumpPath().c_str());
}

}  // namespace
}  // namespace bdisk::obs
