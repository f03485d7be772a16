// Tests for the streaming telemetry bus (obs::TelemetryBus + FrameSink):
// the delta-credit reconciliation invariant under clean and lossy sinks,
// trajectory neutrality, byte-identical streams with the wall clock off,
// the sink-destination grammar, datagram backpressure (drop-newest,
// never block), and an allocation-free window path.

#include "obs/telemetry_bus.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "obs/frame_sink.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/windowed_collector.h"
#include "oracles.h"

namespace bdisk::obs {
namespace {

core::SystemConfig SmallConfig() {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 25.0;
  config.obs_window = 500.0;
  config.seed = 20260809;
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

using CounterMap = std::map<std::string, long long>;

CounterMap CountersOf(const JsonValue& frame, const char* key) {
  CounterMap out;
  const JsonValue* object = frame.Find(key);
  if (object != nullptr && object->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, value] : object->object) {
      out[name] = static_cast<long long>(value.number);
    }
  }
  return out;
}

std::vector<JsonValue> ParseFrames(const std::vector<std::string>& lines) {
  std::vector<JsonValue> frames;
  for (const std::string& line : lines) {
    JsonValue frame;
    std::string error;
    EXPECT_TRUE(ParseJson(line, &frame, &error)) << error << ": " << line;
    EXPECT_EQ(frame.Find("schema")->string, "bdisk-frame-v1");
    frames.push_back(std::move(frame));
  }
  return frames;
}

// Runs `config` with a collector + bus over a CaptureFrameSink (optionally
// sabotaged first via `rig`) and returns the accepted frames plus the
// run's final snapshot counters.
struct BusRun {
  std::vector<JsonValue> frames;
  CounterMap snapshot_counters;
  std::uint64_t frames_emitted = 0;
  std::uint64_t frames_dropped = 0;
};

BusRun RunWithBus(const core::SystemConfig& config,
                  void (*rig)(CaptureFrameSink*) = nullptr) {
  core::System system(config);
  auto sink = std::make_unique<CaptureFrameSink>();
  CaptureFrameSink* capture = sink.get();
  if (rig != nullptr) rig(capture);
  WindowedCollector collector(config.obs_window);
  TelemetryBus bus(std::move(sink));
  bus.EnableWallClock(false);
  system.AttachWindowedCollector(&collector);
  system.AttachTelemetryBus(&bus);
  system.RunSteadyState(QuickProtocol());

  BusRun run;
  run.frames = ParseFrames(capture->frames());
  run.frames_emitted = bus.FramesEmitted();
  run.frames_dropped = bus.FramesDropped();
  MetricsRegistry registry;
  system.SnapshotMetrics(&registry);
  JsonValue snapshot;
  std::string error;
  EXPECT_TRUE(ParseJson(registry.ToJson(), &snapshot, &error)) << error;
  run.snapshot_counters = CountersOf(snapshot, "counters");
  return run;
}

// Asserts the delta-credit invariant over whatever frames were accepted:
// run_end present, base + sum(received deltas) == totals, and totals match
// the final snapshot under the same counter names.
void ExpectReconciles(const BusRun& run) {
  const JsonValue* run_end = nullptr;
  CounterMap delta_sums;
  for (const JsonValue& frame : run.frames) {
    for (const auto& [name, value] : CountersOf(frame, "deltas")) {
      delta_sums[name] += value;
    }
    if (frame.Find("kind")->string == "run_end") run_end = &frame;
  }
  ASSERT_NE(run_end, nullptr) << "stream has no run_end frame";
  const CounterMap base = CountersOf(*run_end, "base");
  const CounterMap totals = CountersOf(*run_end, "totals");
  ASSERT_FALSE(totals.empty());
  for (const auto& [name, total] : totals) {
    const auto base_it = base.find(name);
    const auto delta_it = delta_sums.find(name);
    const long long base_v = base_it == base.end() ? 0 : base_it->second;
    const long long sum_v =
        delta_it == delta_sums.end() ? 0 : delta_it->second;
    EXPECT_EQ(base_v + sum_v, total) << name;
    // Same names as the bdisk-metrics-v1 snapshot, same values.
    const auto snap_it = run.snapshot_counters.find(name);
    ASSERT_NE(snap_it, run.snapshot_counters.end()) << name;
    EXPECT_EQ(snap_it->second, total) << name;
  }
}

// ------------------------------------------------- reconciliation property

TEST(TelemetryBusTest, ReconciliationExactAcrossFusionAndFaultMatrix) {
  for (const bool fused : {true, false}) {
    for (const bool faulty : {false, true}) {
      SCOPED_TRACE(std::string(fused ? "fused" : "unfused") + "/" +
                   (faulty ? "faulty" : "inert"));
      core::SystemConfig config = SmallConfig();
      config.vc_fusion = fused;
      if (faulty) {
        config.fault.slot_loss = 0.05;
        config.fault.request_loss = 0.05;
      }
      const BusRun run = RunWithBus(config);
      ExpectReconciles(run);
      EXPECT_EQ(run.frames_dropped, 0U);
      EXPECT_EQ(run.frames.size(), run.frames_emitted);
      // Clean sink: seqs are contiguous from 0.
      for (std::size_t i = 0; i < run.frames.size(); ++i) {
        EXPECT_EQ(run.frames[i].Find("seq")->number,
                  static_cast<double>(i));
      }
      // The fault plan's probe counters appear exactly when it is active.
      const CounterMap totals =
          CountersOf(run.frames.back(), "totals");
      EXPECT_EQ(totals.count("fault.slots_lost"), faulty ? 1U : 0U);
    }
  }
}

TEST(TelemetryBusTest, DroppedFramesLeaveSeqGapsAndCarryDeltasForward) {
  const BusRun run = RunWithBus(SmallConfig(), [](CaptureFrameSink* sink) {
    sink->FailAt({2, 3, 7});  // Drop three early window frames.
  });
  EXPECT_EQ(run.frames_dropped, 3U);
  EXPECT_EQ(run.frames.size() + 3, run.frames_emitted);

  // The received stream skips exactly the refused seqs.
  std::vector<double> seqs;
  for (const JsonValue& frame : run.frames) {
    seqs.push_back(frame.Find("seq")->number);
  }
  EXPECT_EQ(seqs[1], 1.0);
  EXPECT_EQ(seqs[2], 4.0);  // 2 and 3 are gaps.

  // run_end reports the drops, and reconciliation is still exact: the
  // dropped frames' deltas arrived later on carried-forward frames.
  const JsonValue& run_end = run.frames.back();
  ASSERT_EQ(run_end.Find("kind")->string, "run_end");
  EXPECT_EQ(run_end.Find("frames_dropped")->number, 3.0);
  ExpectReconciles(run);
}

TEST(TelemetryBusTest, TailDropsAreClosedByRunEndDeltas) {
  // Refuse a span of trailing window frames; only run_end (WriteFinal)
  // still gets through. Its closing deltas must cover the whole tail.
  const BusRun run = RunWithBus(SmallConfig(), [](CaptureFrameSink* sink) {
    sink->FailAt({10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20});
  });
  EXPECT_GT(run.frames_dropped, 0U);
  ExpectReconciles(run);
}

// ------------------------------------------------------ trajectory safety

TEST(TelemetryBusTest, AttachedBusLeavesTrajectoryBitIdentical) {
  const core::SystemConfig config = SmallConfig();
  core::System plain(config);
  const core::RunResult without = plain.RunSteadyState(QuickProtocol());

  core::System observed(config);
  WindowedCollector collector(config.obs_window);
  TelemetryBus bus(std::make_unique<CaptureFrameSink>());
  observed.AttachWindowedCollector(&collector);
  observed.AttachTelemetryBus(&bus);
  const core::RunResult with = observed.RunSteadyState(QuickProtocol());

  EXPECT_EQ(without.mean_response, with.mean_response);
  EXPECT_EQ(without.mc_accesses, with.mc_accesses);
  EXPECT_EQ(without.mc_pulls_sent, with.mc_pulls_sent);
  EXPECT_EQ(without.requests_accepted, with.requests_accepted);
  EXPECT_EQ(without.queue_depth_high_water, with.queue_depth_high_water);
  EXPECT_EQ(plain.server().TotalSlots(), observed.server().TotalSlots());
  EXPECT_EQ(plain.server().PullSlots(), observed.server().PullSlots());
}

TEST(TelemetryBusTest, StreamsAreByteIdenticalWithWallClockOff) {
  const auto capture = [](const core::SystemConfig& config) {
    core::System system(config);
    auto sink = std::make_unique<CaptureFrameSink>();
    CaptureFrameSink* raw = sink.get();
    WindowedCollector collector(config.obs_window);
    TelemetryBus bus(std::move(sink));
    bus.EnableWallClock(false);
    system.AttachWindowedCollector(&collector);
    system.AttachTelemetryBus(&bus);
    system.RunSteadyState(QuickProtocol());
    return raw->frames();
  };
  const core::SystemConfig config = SmallConfig();
  EXPECT_EQ(capture(config), capture(config));
}

// ------------------------------------------------- allocation-free windows

// Every operator new in this test binary (the replacements below).
std::atomic<std::uint64_t> allocations{0};

// Accepts every frame and keeps none, so the sink allocates nothing.
class CountingFrameSink final : public FrameSink {
 public:
  bool Write(const std::string& /*frame*/) override {
    ++frames_;
    return true;
  }
  std::string Describe() const override { return "<count>"; }
  std::uint64_t frames() const { return frames_; }

 private:
  std::uint64_t frames_ = 0;
};

TEST(TelemetryBusTest, WindowFramesAllocateNothingAfterTheFirst) {
  const core::SystemConfig config = SmallConfig();
  core::System system(config);
  WindowedCollector collector(config.obs_window);
  auto sink = std::make_unique<CountingFrameSink>();
  const CountingFrameSink* counted = sink.get();
  TelemetryBus bus(std::move(sink));
  // The System installs its own probe, the one a run's frames read.
  system.AttachWindowedCollector(&collector);
  system.AttachTelemetryBus(&bus);
  system.RunSteadyState(QuickProtocol());

  WindowStats w;
  w.slots_push = 250;
  w.slots_pull = 200;
  w.slots_idle = 50;
  w.submits = 90;
  w.dropped = 40;
  w.queue_depth = 7;
  w.queue_depth_max = 10;
  w.responses = 30;
  w.response_mean = 123.456;
  w.response_p50 = 99.5;
  w.response_p99 = 480.25;
  w.response_max = 512.0;
  const auto next = [&w, &config] {
    w.start = w.end;
    w.end = w.start + config.obs_window;
  };
  next();
  bus.OnWindow(w);  // The first frame sizes the bus's scratch buffers.
  const std::uint64_t frames_before = counted->frames();
  const std::uint64_t before = allocations.load();
  for (int i = 0; i < 1000; ++i) {
    next();
    bus.OnWindow(w);
  }
  EXPECT_EQ(allocations.load() - before, 0U);
  EXPECT_EQ(counted->frames() - frames_before, 1000U);
  EXPECT_EQ(bus.WindowFrames(), 1001U + collector.WindowsCompleted());
}

// ------------------------------------------------------------ sink grammar

TEST(FrameSinkTest, MakeFrameSinkGrammar) {
  std::string error;
  const std::string path = ::testing::TempDir() + "frame_sink_test.jsonl";
  std::unique_ptr<FrameSink> file = MakeFrameSink(path, &error);
  ASSERT_NE(file, nullptr) << error;
  EXPECT_TRUE(file->Write("{\"k\":1}"));
  EXPECT_TRUE(file->WriteFinal("{\"k\":2}"));
  EXPECT_EQ(file->Dropped(), 0U);
  file.reset();
  std::remove(path.c_str());

  // No receiver bound: the datagram sink must fail up front with a
  // message that says what to do, not silently drop everything.
  std::unique_ptr<FrameSink> dgram =
      MakeFrameSink("unix:" + ::testing::TempDir() + "no_receiver.sock",
                    &error);
  EXPECT_EQ(dgram, nullptr);
  EXPECT_NE(error.find("receiver"), std::string::npos) << error;
}

// ------------------------------------------------------- datagram backlog

TEST(TelemetryBusTest, DatagramBackpressureDropsNewestAndNeverBlocks) {
  const std::string path = ::testing::TempDir() + "bus_backpressure.sock";
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int receiver = ::socket(AF_UNIX, SOCK_DGRAM, 0);
  ASSERT_GE(receiver, 0);
  // Tiny receive buffer and nobody draining it: the kernel queue fills
  // after a handful of frames and every later Write must drop-newest.
  const int rcvbuf = 2048;
  ::setsockopt(receiver, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  ASSERT_EQ(::bind(receiver, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);

  std::string error;
  std::unique_ptr<FrameSink> sink = MakeFrameSink("unix:" + path, &error);
  ASSERT_NE(sink, nullptr) << error;

  core::SystemConfig config = SmallConfig();
  core::System system(config);
  WindowedCollector collector(config.obs_window);
  TelemetryBus bus(std::move(sink));
  system.AttachWindowedCollector(&collector);
  system.AttachTelemetryBus(&bus);
  const core::RunResult result = system.RunSteadyState(QuickProtocol());

  // The run completed normally despite the stuck receiver...
  EXPECT_GT(result.mc_accesses, 0U);
  // ...and the backlog shows up as counted drops, not blocking.
  EXPECT_GT(bus.FramesDropped(), 0U);
  EXPECT_LT(bus.FramesDropped(), bus.FramesEmitted());
  EXPECT_EQ(bus.sink().Dropped(), bus.FramesDropped());

  // What did land in the kernel buffer is intact, parseable frames.
  char buffer[65536];
  const ssize_t n = ::recv(receiver, buffer, sizeof(buffer), MSG_DONTWAIT);
  ASSERT_GT(n, 0);
  JsonValue frame;
  ASSERT_TRUE(ParseJson(std::string(buffer, static_cast<std::size_t>(n)),
                        &frame, &error))
      << error;
  EXPECT_EQ(frame.Find("schema")->string, "bdisk-frame-v1");
  EXPECT_EQ(frame.Find("kind")->string, "run_start");

  ::close(receiver);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace bdisk::obs

// Counted replacements of the global allocation functions, for
// WindowFramesAllocateNothingAfterTheFirst: every unaligned form, plain and
// nothrow, allocates with malloc and frees with free. The aligned forms
// keep the library's pair. GCC flags free() on what its operator new
// returned, not knowing this one is malloc.
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  bdisk::obs::allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t& /*tag*/) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t& /*tag*/) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
