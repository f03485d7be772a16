// Kernel-matrix invariance: the simulation kernel has one production path
// and one semantic oracle, and both must produce the bit-identical
// simulated trajectory — metrics, counters, and the full trace and frame
// streams — loaded, with an active fault plan, with updates and
// adaptation, and with every observer attached.
//
//   production: the 4-ary heap EventQueue, batched periodic slot spans,
//               and the fused virtual client draining through the batched
//               arrival spine (vc_fusion = true, the default);
//   oracle:     the evented, unfused virtual client (vc_fusion = false,
//               which fault.request_delay forces anyway) — a separately
//               written path that schedules every arrival as a heap event.
//
// The span loop's own reference, Simulator::Step(), is pinned in
// simulator_test.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "obs/frame_sink.h"
#include "obs/phase_profiler.h"
#include "obs/telemetry_bus.h"
#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"
#include "oracles.h"

namespace bdisk {
namespace {

enum class Cell { kProduction, kOracle };

const Cell kCells[] = {Cell::kProduction, Cell::kOracle};

std::string CellName(Cell cell) {
  return cell == Cell::kProduction ? "production" : "oracle";
}

core::SteadyStateProtocol SmallProtocol() {
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 100;
  protocol.min_measured_accesses = 500;
  protocol.max_measured_accesses = 1500;
  protocol.batch_size = 250;
  protocol.tolerance = 0.1;
  return protocol;
}

core::SystemConfig SmallLoadedConfig() {
  core::SystemConfig config;
  config.mode = core::DeliveryMode::kIpp;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 50.0;
  config.pull_bw = 0.5;
  config.thres_perc = 0.1;
  config.seed = 20260808;
  return config;
}

void ApplyCell(core::SystemConfig* config, Cell cell) {
  config->vc_fusion = cell == Cell::kProduction;
}

// Trajectory fields, plus the kernel accounting that must agree between
// the cells: each fused arrival is exactly one heap event the oracle
// executes instead, so events_executed + lazy_arrivals_fused is invariant.
// Profile counters (heap high water, stale-discard timing, span counts)
// depend on the event mix and are compared nowhere.
void ExpectSameTrajectory(const core::RunResult& a, const core::RunResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.response_stats.Variance(), b.response_stats.Variance());
  EXPECT_EQ(a.response_stats.Count(), b.response_stats.Count());
  EXPECT_EQ(a.response_p50, b.response_p50);
  EXPECT_EQ(a.response_p90, b.response_p90);
  EXPECT_EQ(a.response_p99, b.response_p99);
  EXPECT_EQ(a.response_max, b.response_max);
  EXPECT_EQ(a.mc_accesses, b.mc_accesses);
  EXPECT_EQ(a.mc_hit_rate, b.mc_hit_rate);
  EXPECT_EQ(a.mc_pulls_sent, b.mc_pulls_sent);
  EXPECT_EQ(a.mc_retries_sent, b.mc_retries_sent);
  EXPECT_EQ(a.mc_invalidations, b.mc_invalidations);
  EXPECT_EQ(a.vc_requests_generated, b.vc_requests_generated);
  EXPECT_EQ(a.vc_cache_hits, b.vc_cache_hits);
  EXPECT_EQ(a.vc_filtered, b.vc_filtered);
  EXPECT_EQ(a.vc_submitted, b.vc_submitted);
  EXPECT_EQ(a.updates_generated, b.updates_generated);
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_accepted, b.requests_accepted);
  EXPECT_EQ(a.requests_coalesced, b.requests_coalesced);
  EXPECT_EQ(a.requests_dropped, b.requests_dropped);
  EXPECT_EQ(a.requests_shed, b.requests_shed);
  EXPECT_EQ(a.requests_dropped_outage, b.requests_dropped_outage);
  EXPECT_EQ(a.queue_depth_high_water, b.queue_depth_high_water);
  EXPECT_EQ(a.fault_slots_lost, b.fault_slots_lost);
  EXPECT_EQ(a.fault_slots_corrupted, b.fault_slots_corrupted);
  EXPECT_EQ(a.fault_requests_lost, b.fault_requests_lost);
  EXPECT_EQ(a.fault_requests_delayed, b.fault_requests_delayed);
  EXPECT_EQ(a.outage_slots, b.outage_slots);
  EXPECT_EQ(a.mc_timeouts_fired, b.mc_timeouts_fired);
  EXPECT_EQ(a.mc_fallbacks, b.mc_fallbacks);
  EXPECT_EQ(a.push_slot_frac, b.push_slot_frac);
  EXPECT_EQ(a.pull_slot_frac, b.pull_slot_frac);
  EXPECT_EQ(a.idle_slot_frac, b.idle_slot_frac);
  EXPECT_EQ(a.sim_time_end, b.sim_time_end);
  EXPECT_EQ(a.converged, b.converged);
  // The span loop must count occurrences exactly like per-event stepping,
  // and the heap must never execute a stale carcass.
  EXPECT_EQ(a.kernel.events_executed + a.kernel.lazy_arrivals_fused,
            b.kernel.events_executed + b.kernel.lazy_arrivals_fused);
  EXPECT_EQ(a.kernel.periodic_rearms, b.kernel.periodic_rearms);
}

// The cell actually ran the path it names: the production cell drains the
// VC fused (unless fault.request_delay forces the oracle) and batches slot
// spans; the oracle cell schedules every arrival as a heap event.
void ExpectCellEngaged(core::System& system, const core::RunResult& result,
                       Cell cell) {
  SCOPED_TRACE(CellName(cell));
  const bool fused = cell == Cell::kProduction &&
                     system.config().fault.request_delay == 0.0;
  ASSERT_NE(system.vc(), nullptr);
  EXPECT_EQ(system.vc()->Fused(), fused);
  if (fused) {
    EXPECT_GT(result.kernel.lazy_arrivals_fused, 0U);
  } else {
    EXPECT_EQ(result.kernel.lazy_arrivals_fused, 0U);
  }
  if (cell == Cell::kProduction) {
    EXPECT_GT(result.kernel.periodic_spans, 0U);
  }
}

void ExpectCellsInvariant(core::SystemConfig config) {
  std::optional<core::RunResult> reference;
  for (const Cell cell : kCells) {
    ApplyCell(&config, cell);
    core::System system(config);
    const core::RunResult result = system.RunSteadyState(SmallProtocol());
    ExpectCellEngaged(system, result, cell);
    if (!reference.has_value()) {
      reference = result;
      continue;
    }
    ExpectSameTrajectory(*reference, result,
                         CellName(kCells[0]) + " vs " + CellName(cell));
  }
}

// Byte-for-byte equality of two trace streams: every span record, in
// order, with timestamps and payloads.
void ExpectSameTraceStream(const std::vector<obs::SpanRecord>& a,
                           const std::vector<obs::SpanRecord>& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].time, b[r].time) << label << " record " << r;
    ASSERT_EQ(a[r].event, b[r].event) << label << " record " << r;
    ASSERT_EQ(a[r].client, b[r].client) << label << " record " << r;
    ASSERT_EQ(a[r].page, b[r].page) << label << " record " << r;
    ASSERT_EQ(a[r].value, b[r].value) << label << " record " << r;
  }
}

TEST(KernelMatrixTest, TrajectoryInvariantLoaded) {
  ExpectCellsInvariant(SmallLoadedConfig());
}

TEST(KernelMatrixTest, TrajectoryInvariantWithActiveFaultPlan) {
  // An *active* plan: fault code draws randomness, injects slot loss and
  // outages, delays requests, and drives the MC retry/timeout engine —
  // all of it must land identically on both cells. (The inert-plan case is
  // the loaded test above; see ROBUSTNESS.md.)
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.05;
  config.fault.request_loss = 0.05;
  config.fault.request_delay = 2.0;
  config.fault.outage_start = 200.0;
  config.fault.outage_duration = 25.0;
  config.fault.outage_period = 400.0;
  config.fault.mc_timeout = 50.0;
  ASSERT_TRUE(config.fault.Enabled());
  ASSERT_EQ(config.Validate(), "");
  ExpectCellsInvariant(config);
}

TEST(KernelMatrixTest, TrajectoryInvariantWithUpdatesAndAdaptation) {
  // Volatile data plus both controllers: the densest event mix (update
  // wakeups, controller windows, invalidation barriers) the system has.
  core::SystemConfig config = SmallLoadedConfig();
  config.update_rate = 0.2;
  config.adaptive_pull_bw = true;
  config.adaptive_threshold = true;
  ExpectCellsInvariant(config);
}

// fault.request_delay forces the unfused VC (delayed arrivals need their
// own heap events) no matter what vc_fusion asks for, and the forced run
// must be the oracle's run exactly, kernel accounting included.
TEST(KernelMatrixTest, FaultDelayForcesTheOracle) {
  core::SystemConfig config = SmallLoadedConfig();
  config.update_rate = 0.2;
  config.fault.request_delay = 2.0;
  ASSERT_TRUE(config.fault.Enabled());
  ASSERT_EQ(config.Validate(), "");

  ApplyCell(&config, Cell::kProduction);
  core::System forced(config);
  const core::RunResult forced_result = forced.RunSteadyState(SmallProtocol());
  ExpectCellEngaged(forced, forced_result, Cell::kProduction);

  ApplyCell(&config, Cell::kOracle);
  core::System oracle(config);
  const core::RunResult oracle_result = oracle.RunSteadyState(SmallProtocol());
  ExpectCellEngaged(oracle, oracle_result, Cell::kOracle);

  ExpectSameTrajectory(forced_result, oracle_result,
                       "forced production vs oracle");
  EXPECT_EQ(forced_result.kernel.events_executed,
            oracle_result.kernel.events_executed);
}

// The strongest pin: the complete trace stream — every span record, in
// order, with timestamps and payloads — must be byte-for-byte identical
// across the cells.
TEST(KernelMatrixTest, TraceStreamsIdenticalAcrossMatrix) {
  core::SystemConfig config = SmallLoadedConfig();
  config.update_rate = 0.2;

  std::vector<obs::SpanRecord> reference;
  for (const Cell cell : kCells) {
    ApplyCell(&config, cell);
    core::System system(config);
    obs::TraceSink sink(1 << 21);
    system.AttachTrace(&sink);
    system.RunSteadyState(SmallProtocol());
    ASSERT_EQ(sink.DroppedEvents(), 0U) << CellName(cell);
    if (reference.empty()) {
      reference = sink.Events();
      ASSERT_GT(reference.size(), 0U);
      continue;
    }
    ExpectSameTraceStream(reference, sink.Events(), CellName(cell));
  }
}

// Profiler arm: attaching the wall-clock phase profiler is a pure
// wall-clock knob too. Each cell must produce the bit-identical RunResult
// *and* trace stream with the profiler attached as without — under an
// active fault plan, so the fault.judge instrumentation sites (which
// straddle the injector's RNG draws) are exercised.
TEST(KernelMatrixTest, ProfilerAttachLeavesTrajectoryBitIdentical) {
  core::SystemConfig config = SmallLoadedConfig();
  config.update_rate = 0.2;
  config.fault.slot_loss = 0.05;
  config.fault.request_loss = 0.05;
  config.fault.request_delay = 2.0;
  config.fault.mc_timeout = 50.0;
  ASSERT_TRUE(config.fault.Enabled());

  for (const Cell cell : kCells) {
    ApplyCell(&config, cell);

    core::System plain(config);
    obs::TraceSink plain_sink(1 << 21);
    plain.AttachTrace(&plain_sink);
    const core::RunResult reference = plain.RunSteadyState(SmallProtocol());

    core::System profiled(config);
    obs::TraceSink profiled_sink(1 << 21);
    obs::PhaseProfiler profiler;
    profiled.AttachTrace(&profiled_sink);
    profiled.AttachProfiler(&profiler);
    const core::RunResult result = profiled.RunSteadyState(SmallProtocol());

    ExpectSameTrajectory(reference, result,
                         CellName(cell) + " profiler off vs on");
    ExpectSameTraceStream(plain_sink.Events(), profiled_sink.Events(),
                          CellName(cell));

    // The profile actually observed the run: every frame closed, the
    // arrival and slot phases fired, and the fault sites were hit.
    EXPECT_EQ(profiler.OpenDepth(), 0) << CellName(cell);
    EXPECT_GT(profiler.Calls(obs::Phase::kRun), 0U) << CellName(cell);
    EXPECT_GT(profiler.Calls(obs::Phase::kServerSlot), 0U) << CellName(cell);
    EXPECT_GT(profiler.Calls(obs::Phase::kVcArrival), 0U) << CellName(cell);
    EXPECT_GT(profiler.Calls(obs::Phase::kFaultJudge), 0U) << CellName(cell);
    EXPECT_GT(profiler.Ops(obs::Phase::kVcArrival), 0U) << CellName(cell);
  }
}

// Telemetry-bus arm: streaming bdisk-frame-v1 frames is a pure observer
// too. Each cell must produce the bit-identical RunResult *and* trace
// stream with the bus attached as without — and, because frame provenance
// carries only trajectory-relevant fields (never vc_fusion) and the wall
// clock is suppressed, the frame streams themselves must be byte-identical
// across the cells.
TEST(KernelMatrixTest, TelemetryBusAttachLeavesTrajectoryBitIdentical) {
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.05;
  config.fault.request_loss = 0.05;
  ASSERT_TRUE(config.fault.Enabled());

  std::vector<std::string> reference_frames;
  for (const Cell cell : kCells) {
    ApplyCell(&config, cell);

    core::System plain(config);
    obs::TraceSink plain_sink(1 << 21);
    plain.AttachTrace(&plain_sink);
    const core::RunResult reference = plain.RunSteadyState(SmallProtocol());

    core::System observed(config);
    obs::TraceSink observed_sink(1 << 21);
    auto frame_sink = std::make_unique<obs::CaptureFrameSink>();
    obs::CaptureFrameSink* capture = frame_sink.get();
    obs::WindowedCollector collector(config.obs_window);
    obs::TelemetryBus bus(std::move(frame_sink));
    bus.EnableWallClock(false);
    observed.AttachTrace(&observed_sink);
    observed.AttachWindowedCollector(&collector);
    observed.AttachTelemetryBus(&bus);
    const core::RunResult result = observed.RunSteadyState(SmallProtocol());

    ExpectSameTrajectory(reference, result, CellName(cell) + " bus off vs on");
    ExpectSameTraceStream(plain_sink.Events(), observed_sink.Events(),
                          CellName(cell));

    // The stream observed the run, with nothing dropped by a memory sink.
    EXPECT_GT(bus.WindowFrames(), 0U) << CellName(cell);
    EXPECT_EQ(bus.FramesDropped(), 0U) << CellName(cell);
    if (reference_frames.empty()) {
      reference_frames = capture->frames();
      ASSERT_GT(reference_frames.size(), 2U);
      continue;
    }
    // Byte-identical frames across the cells.
    EXPECT_EQ(capture->frames(), reference_frames) << CellName(cell);
  }
}

}  // namespace
}  // namespace bdisk
