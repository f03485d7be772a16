// Measures the cost of the observability layer on the end-to-end slot
// loop: the same System run with and without a MetricsRegistry and
// TraceSink attached. The budget (DESIGN.md, Observability) is < 3%
// overhead for the metrics hooks; compare BM_EndToEndSlots_Detached
// against BM_EndToEndSlots_Metrics. Results are recorded in
// BENCH_obs.json alongside BENCH_kernel.json.

#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "core/system.h"
#include "obs/flight_recorder.h"
#include "obs/frame_sink.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/telemetry_bus.h"
#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"

namespace {

using namespace bdisk;

core::SystemConfig BenchConfig(double think_time_ratio) {
  core::SystemConfig config;
  config.think_time_ratio = think_time_ratio;
  return config;
}

// Baseline: observability fully detached. All hook pointers stay null, so
// the hot path pays one branch per hook site and nothing else. This is the
// baseline for every attach arm.
void BM_EndToEndSlots_Detached(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::System system(BenchConfig(static_cast<double>(state.range(0))));
    system.mc().Start();
    if (system.vc() != nullptr) system.vc()->Start();
    state.ResumeTiming();
    system.simulator().RunUntil(20000.0);
    benchmark::DoNotOptimize(system.server().TotalSlots());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("items = broadcast units");
}
BENCHMARK(BM_EndToEndSlots_Detached)
    ->Arg(10)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

// Metrics attached: every counter/gauge/time-series hook live, response
// histogram fed, slot-mix window sampled. This is the configuration the
// < 3% budget applies to.
void BM_EndToEndSlots_Metrics(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::System system(BenchConfig(static_cast<double>(state.range(0))));
    obs::MetricsRegistry registry;
    system.AttachMetrics(&registry);
    system.mc().Start();
    if (system.vc() != nullptr) system.vc()->Start();
    state.ResumeTiming();
    system.simulator().RunUntil(20000.0);
    benchmark::DoNotOptimize(system.server().TotalSlots());
    state.PauseTiming();
    system.SnapshotMetrics(&registry);
    benchmark::DoNotOptimize(registry.counters().size());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("items = broadcast units");
}
BENCHMARK(BM_EndToEndSlots_Metrics)
    ->Arg(10)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

// Metrics and trace both attached: every span record goes into the ring
// buffer too. Tracing is an opt-in debugging aid, so it sits outside the
// 3% budget, but we track its cost here to keep it honest.
void BM_EndToEndSlots_MetricsAndTrace(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::System system(BenchConfig(static_cast<double>(state.range(0))));
    obs::MetricsRegistry registry;
    obs::TraceSink sink(1 << 16);
    system.AttachMetrics(&registry);
    system.AttachTrace(&sink);
    system.mc().Start();
    if (system.vc() != nullptr) system.vc()->Start();
    state.ResumeTiming();
    system.simulator().RunUntil(20000.0);
    benchmark::DoNotOptimize(system.server().TotalSlots());
    benchmark::DoNotOptimize(sink.TotalEvents());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("items = broadcast units");
}
BENCHMARK(BM_EndToEndSlots_MetricsAndTrace)
    ->Arg(10)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

// The attachable analysis tier: metrics, windowed telemetry, and an
// armed-but-never-firing flight recorder — what `bdisk_sim --metrics-json
// --windows --flight-recorder` runs when tracing is off. The acceptance
// bound for this stack is < 5% over Detached.
void BM_EndToEndSlots_Windows(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::System system(BenchConfig(static_cast<double>(state.range(0))));
    obs::MetricsRegistry registry;
    obs::WindowedCollector collector(100.0);
    obs::FlightTriggers triggers;
    triggers.queue_depth = 1e18;  // Armed, evaluated, never fires.
    obs::FlightRecorder recorder(triggers, "bench-flight-");
    system.AttachMetrics(&registry);
    system.AttachWindowedCollector(&collector);
    system.AttachFlightRecorder(&recorder);
    system.mc().Start();
    if (system.vc() != nullptr) system.vc()->Start();
    state.ResumeTiming();
    system.simulator().RunUntil(20000.0);
    benchmark::DoNotOptimize(system.server().TotalSlots());
    state.PauseTiming();
    collector.Finish();
    benchmark::DoNotOptimize(collector.WindowsCompleted());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("items = broadcast units");
}
BENCHMARK(BM_EndToEndSlots_Windows)
    ->Arg(10)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

// Wall-clock phase profiler attached: every instrumentation frame pays its
// counter bump, sampled frames pay the timestamps. The acceptance bound
// (OBSERVABILITY.md §7) is < 5% over Detached at EndToEndSlots/250.
void BM_EndToEndSlots_Profiler(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::System system(BenchConfig(static_cast<double>(state.range(0))));
    obs::PhaseProfiler profiler;
    system.AttachProfiler(&profiler);
    system.mc().Start();
    if (system.vc() != nullptr) system.vc()->Start();
    state.ResumeTiming();
    system.simulator().RunUntil(20000.0);
    benchmark::DoNotOptimize(system.server().TotalSlots());
    state.PauseTiming();
    benchmark::DoNotOptimize(profiler.Calls(obs::Phase::kRun));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("items = broadcast units");
}
BENCHMARK(BM_EndToEndSlots_Profiler)
    ->Arg(10)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

// Streaming telemetry bus on top of the full analysis tier (the Windows
// stack above, unchanged, plus the bus): live bdisk-frame-v1 frames
// through the real file write path (/dev/null, so serialization and
// write() cost is measured without disk noise). This is what `bdisk_sim
// --windows --frames` runs; the acceptance bound (OBSERVABILITY.md §8) is
// < 5% added over the Windows stack — compare against
// BM_EndToEndSlots_Windows, which this arm extends by exactly the bus.
void BM_EndToEndSlots_FrameBus(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::System system(BenchConfig(static_cast<double>(state.range(0))));
    obs::MetricsRegistry registry;
    obs::WindowedCollector collector(100.0);
    obs::FlightTriggers triggers;
    triggers.queue_depth = 1e18;  // Armed, evaluated, never fires.
    obs::FlightRecorder recorder(triggers, "bench-flight-");
    std::string error;
    obs::TelemetryBus bus(obs::MakeFrameSink("/dev/null", &error));
    system.AttachMetrics(&registry);
    system.AttachWindowedCollector(&collector);
    system.AttachFlightRecorder(&recorder);
    system.AttachTelemetryBus(&bus);
    system.mc().Start();
    if (system.vc() != nullptr) system.vc()->Start();
    state.ResumeTiming();
    system.simulator().RunUntil(20000.0);
    benchmark::DoNotOptimize(system.server().TotalSlots());
    state.PauseTiming();
    collector.Finish();
    benchmark::DoNotOptimize(bus.FramesEmitted());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("items = broadcast units");
}
BENCHMARK(BM_EndToEndSlots_FrameBus)
    ->Arg(10)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

// Everything at once, trace ring included. Like tracing itself this sits
// outside the 5% budget (the ring write per span event dominates), but we
// track it so the cost of the debugging configuration stays visible.
void BM_EndToEndSlots_FullTelemetry(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::System system(BenchConfig(static_cast<double>(state.range(0))));
    obs::MetricsRegistry registry;
    obs::TraceSink sink(1 << 16);
    obs::WindowedCollector collector(100.0);
    obs::FlightTriggers triggers;
    triggers.queue_depth = 1e18;  // Armed, evaluated, never fires.
    obs::FlightRecorder recorder(triggers, "bench-flight-");
    system.AttachMetrics(&registry);
    system.AttachTrace(&sink);
    system.AttachWindowedCollector(&collector);
    system.AttachFlightRecorder(&recorder);
    system.mc().Start();
    if (system.vc() != nullptr) system.vc()->Start();
    state.ResumeTiming();
    system.simulator().RunUntil(20000.0);
    benchmark::DoNotOptimize(system.server().TotalSlots());
    state.PauseTiming();
    collector.Finish();
    benchmark::DoNotOptimize(collector.WindowsCompleted());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("items = broadcast units");
}
BENCHMARK(BM_EndToEndSlots_FullTelemetry)
    ->Arg(10)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

}  // namespace
