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

/// A file name prefix in the test's scratch directory.
std::string Prefix(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// The whole file at `path`; "" when it cannot be read.
std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

bool Exists(const std::string& path) { return std::ifstream(path).good(); }

void RemoveDump(const std::string& stem) {
  std::remove((stem + ".json").c_str());
  std::remove((stem + ".jsonl").c_str());
}

/// The dump's snapshot, parsed; fails the test unless it is a
/// bdisk-metrics-v1 document.
JsonValue ReadSnapshot(const std::string& stem) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(ReadFile(stem + ".json"), &root, &error)) << error;
  const JsonValue* schema = root.Find("schema");
  EXPECT_TRUE(schema != nullptr && schema->string == "bdisk-metrics-v1");
  return root;
}

double Gauge(const JsonValue& snapshot, const std::string& name) {
  const JsonValue* gauges = snapshot.Find("gauges");
  const JsonValue* value = gauges == nullptr ? nullptr : gauges->Find(name);
  EXPECT_NE(value, nullptr) << name;
  return value == nullptr ? -1.0 : value->number;
}

TEST(FlightRecorderTest, FiresOnceOnThresholdCrossing) {
  FlightTriggers triggers;
  triggers.drop_rate = 0.25;
  FlightRecorder recorder(triggers, Prefix("flight_once_"));

  recorder.OnWindow(QuietWindow(0.0));
  EXPECT_FALSE(recorder.Fired());

  WindowStats bad = QuietWindow(100.0);
  bad.submits = 10;
  bad.accepted = 5;
  bad.dropped = 5;  // Drop rate 0.5 > 0.25.
  recorder.OnWindow(bad);
  EXPECT_TRUE(recorder.Fired());
  EXPECT_EQ(recorder.FireCount(), 1U);
  EXPECT_EQ(recorder.DumpStem(), Prefix("flight_once_t200-drop_rate"));

  // One-shot: later (worse) windows do not fire again.
  bad.start = 200.0;
  bad.end = 300.0;
  bad.dropped = 9;
  bad.accepted = 1;
  recorder.OnWindow(bad);
  EXPECT_EQ(recorder.FireCount(), 1U);
  EXPECT_EQ(recorder.WindowsEvaluated(), 3U);
  RemoveDump(recorder.DumpStem());
}

TEST(FlightRecorderTest, MultiShotRearmsItselfUntilDumpBudgetSpent) {
  FlightTriggers triggers;
  triggers.drop_rate = 0.25;
  FlightRecorder recorder(triggers, Prefix("flight_multi_"),
                          /*max_dumps=*/3);
  EXPECT_EQ(recorder.MaxDumps(), 3U);

  WindowStats bad = QuietWindow(0.0);
  bad.submits = 10;
  bad.accepted = 5;
  bad.dropped = 5;  // Drop rate 0.5 > 0.25 on every window below.

  std::vector<std::string> stems;
  for (int shot = 1; shot <= 3; ++shot) {
    recorder.OnWindow(bad);
    EXPECT_EQ(recorder.FireCount(), static_cast<std::uint64_t>(shot));
    // Self re-arms between dumps; disarmed only once the budget is spent.
    EXPECT_EQ(recorder.Fired(), shot == 3);
    stems.push_back(recorder.DumpStem());
    bad.start += 100.0;
    bad.end += 100.0;
  }
  // Budget spent: a fourth bad window does not fire.
  recorder.OnWindow(bad);
  EXPECT_EQ(recorder.FireCount(), 3U);

  // Each shot wrote its own snapshot (distinct window-end times).
  EXPECT_NE(stems[0], stems[1]);
  EXPECT_NE(stems[1], stems[2]);
  for (const std::string& stem : stems) {
    EXPECT_TRUE(Exists(stem + ".json")) << stem;
    RemoveDump(stem);
  }
}

// Windows of fractional width end at times that round to the same
// integer; each dump still gets files of its own.
TEST(FlightRecorderTest, FractionalWindowEndsNameDistinctDumps) {
  FlightTriggers triggers;
  triggers.queue_depth = 0.0;
  FlightRecorder recorder(triggers, Prefix("flight_frac_"), /*max_dumps=*/4);
  std::vector<std::string> stems;
  for (int i = 0; i < 4; ++i) {
    WindowStats w;
    w.start = 279.0 + 0.25 * i;
    w.end = w.start + 0.25;
    w.queue_depth_max = 1;
    recorder.OnWindow(w);
    EXPECT_EQ(recorder.LastError(), "");
    stems.push_back(recorder.DumpStem());
  }
  EXPECT_EQ(stems[0], Prefix("flight_frac_t279.25-queue_depth"));
  EXPECT_EQ(stems[1], Prefix("flight_frac_t279.5-queue_depth"));
  EXPECT_EQ(stems[2], Prefix("flight_frac_t279.75-queue_depth"));
  EXPECT_EQ(stems[3], Prefix("flight_frac_t280-queue_depth"));
  for (const std::string& stem : stems) {
    EXPECT_TRUE(Exists(stem + ".json")) << stem;
    RemoveDump(stem);
  }
}

TEST(FlightRecorderTest, DumpCarriesWindowTriggerMetricsAndTrace) {
  FlightTriggers triggers;
  triggers.queue_depth = 3.0;
  FlightRecorder recorder(triggers, Prefix("flight_dump_"));

  TraceSink sink;
  sink.Record(40.0, SpanEvent::kRequest, kMeasuredClientId, 7);   // Before.
  sink.Record(120.0, SpanEvent::kSlotPull, kNoClient, 7);         // Inside.
  sink.Record(121.0, SpanEvent::kDelivery, kMeasuredClientId, 7, 2.0);
  recorder.SetTraceSink(&sink);
  recorder.SetSnapshot([](MetricsRegistry* registry) {
    registry->GetCounter("server.slots_total")->Set(42);
  });

  WindowStats w = QuietWindow(100.0);
  w.queue_depth_max = 8;
  recorder.OnWindow(w);
  ASSERT_EQ(recorder.LastError(), "");
  const std::string stem = recorder.DumpStem();
  EXPECT_EQ(stem, Prefix("flight_dump_t200-queue_depth"));

  // The snapshot: the owner's metrics plus the trigger's gauges.
  const JsonValue snapshot = ReadSnapshot(stem);
  EXPECT_DOUBLE_EQ(Gauge(snapshot, "flight.fired_at"), 200.0);
  EXPECT_DOUBLE_EQ(Gauge(snapshot, "flight.window_start"), 100.0);
  EXPECT_DOUBLE_EQ(Gauge(snapshot, "flight.threshold"), 3.0);
  EXPECT_DOUBLE_EQ(Gauge(snapshot, "flight.value"), 8.0);
  EXPECT_DOUBLE_EQ(
      snapshot.Find("counters")->Find("server.slots_total")->number, 42.0);

  // The trace slice: only the trailing window's records, in the trace's
  // own JSONL encoding.
  const std::string slice = ReadFile(stem + ".jsonl");
  EXPECT_EQ(slice, sink.ToJsonl(100.0));
  std::vector<SpanRecord> records;
  std::istringstream lines(slice);
  for (std::string line; std::getline(lines, line);) {
    SpanRecord r;
    ASSERT_TRUE(ParseTraceJsonlLine(line, &r)) << line;
    records.push_back(r);
  }
  ASSERT_EQ(records.size(), 2U);
  EXPECT_DOUBLE_EQ(records[0].time, 120.0);
  EXPECT_EQ(records[1].event, SpanEvent::kDelivery);
  RemoveDump(stem);
}

TEST(FlightRecorderTest, DumpWithoutSourcesIsStillWellFormed) {
  FlightTriggers triggers;
  triggers.p99 = 1.0;
  FlightRecorder recorder(triggers, Prefix("flight_bare_"));
  WindowStats w = QuietWindow(0.0);
  w.response_p99 = 2.0;
  recorder.OnWindow(w);
  ASSERT_EQ(recorder.LastError(), "");
  const std::string stem = recorder.DumpStem();
  const JsonValue snapshot = ReadSnapshot(stem);
  EXPECT_DOUBLE_EQ(Gauge(snapshot, "flight.value"), 2.0);
  EXPECT_FALSE(Exists(stem + ".jsonl"));  // No trace attached.
  RemoveDump(stem);
}

TEST(FlightRecorderTest, UnwritablePrefixReportsTheError) {
  FlightTriggers triggers;
  triggers.p99 = 1.0;
  FlightRecorder recorder(triggers, Prefix("no_such_dir/flight_"));
  WindowStats w = QuietWindow(0.0);
  w.response_p99 = 2.0;
  recorder.OnWindow(w);
  EXPECT_EQ(recorder.FireCount(), 1U);
  EXPECT_EQ(recorder.DumpStem(), "");
  EXPECT_NE(recorder.LastError().find("cannot open"), std::string::npos);
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
  FlightRecorder recorder(triggers, Prefix("flight_system_"));
  system.AttachMetrics(&registry);
  system.AttachTrace(&sink);
  system.AttachWindowedCollector(&collector);
  system.AttachFlightRecorder(&recorder);
  system.RunSteadyState(QuickProtocol());

  ASSERT_TRUE(recorder.Fired());
  EXPECT_EQ(recorder.LastError(), "");
  const std::string stem = recorder.DumpStem();
  ASSERT_FALSE(stem.empty());

  // The snapshot is the run's own bdisk-metrics-v1 document at the firing
  // window: its window.* series end with that window, whose queue high
  // water crossed the trigger.
  const JsonValue snapshot = ReadSnapshot(stem);
  const double fired_at = Gauge(snapshot, "flight.fired_at");
  const double window_start = Gauge(snapshot, "flight.window_start");
  EXPECT_DOUBLE_EQ(fired_at - window_start, 50.0);
  EXPECT_GT(Gauge(snapshot, "flight.value"), 1.0);
  const JsonValue* queue_max =
      snapshot.Find("time_series")->Find("window.queue_max");
  ASSERT_NE(queue_max, nullptr);
  ASSERT_FALSE(queue_max->array.empty());
  const JsonValue& last = queue_max->array.back();
  EXPECT_DOUBLE_EQ(last.array[0].number, window_start);
  EXPECT_DOUBLE_EQ(last.array[1].number, Gauge(snapshot, "flight.value"));

  // The slice is a contiguous run of the run's own trace lines — one
  // encoder — starting at the firing window.
  const std::string slice = ReadFile(stem + ".jsonl");
  ASSERT_FALSE(slice.empty());
  const std::string whole = sink.ToJsonl();
  const std::size_t at = whole.find(slice);
  ASSERT_NE(at, std::string::npos);
  EXPECT_TRUE(at == 0 || whole[at - 1] == '\n');
  SpanRecord first;
  ASSERT_TRUE(
      ParseTraceJsonlLine(slice.substr(0, slice.find('\n')), &first));
  EXPECT_GE(first.time, window_start);
  RemoveDump(stem);
}

}  // namespace
}  // namespace bdisk::obs
