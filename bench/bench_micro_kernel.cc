// google-benchmark microbenchmarks for the simulation substrate: these
// bound how much wall-clock the figure benches need and catch performance
// regressions in the hot paths (event queue, sampling, slot loop).

#include <benchmark/benchmark.h>

#include <vector>

#include "broadcast/broadcast_program.h"
#include "broadcast/page_ranking.h"
#include "broadcast/program_builder.h"
#include "core/system.h"
#include "harness.h"
#include "sim/alias_sampler.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/zipf.h"

namespace {

using namespace bdisk;

// Steady-state hold-and-replace at a fixed depth. The schedule horizon
// mirrors the simulation's real event mix: events land within a bounded
// window ahead of the clock.
void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  sim::Rng rng(1);
  double t = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.Schedule(rng.NextDouble() * 1e3, [] {});
  }
  for (auto _ : state) {
    sim::EventQueue::Fired fired;
    queue.Pop(&fired);
    t = fired.when;
    queue.Schedule(t + 1.0 + rng.NextDouble() * 1e3, [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleAndPop)
    ->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

// Mixed churn: every iteration pops one event, schedules one replacement,
// and cancels-then-reschedules one random live event — the lazy-deletion
// worst case, where a constant stream of stale carcasses flows through
// the heap.
void BM_EventQueueChurn(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  sim::Rng rng(1);
  std::vector<sim::EventId> live(depth);
  double t = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    live[i] = queue.Schedule(rng.NextDouble() * 1e3, [] {});
  }
  for (auto _ : state) {
    sim::EventQueue::Fired fired;
    queue.Pop(&fired);
    t = fired.when;
    // Replace the popped event, then cancel-and-reschedule a random live
    // one; the IsPending branch keeps the live count exactly at `depth`.
    const sim::EventId fresh =
        queue.Schedule(t + 1.0 + rng.NextDouble() * 1e3, [] {});
    const std::size_t victim = rng.NextBounded(depth);
    if (queue.IsPending(live[victim])) {
      queue.Cancel(live[victim]);
      live[victim] = queue.Schedule(t + 1.0 + rng.NextDouble() * 1e3, [] {});
    } else {
      live[victim] = fresh;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueChurn)->Arg(256)->Arg(4096)->Arg(65536);

// The slot-loop fast path: a periodic timer popped and re-armed against a
// backdrop of `depth` pending one-shots, without touching the heap.
void BM_EventQueuePeriodicTick(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  sim::Rng rng(1);
  for (std::size_t i = 0; i < depth; ++i) {
    // Far in the future so the periodic always wins the comparison.
    queue.Schedule(1e9 + rng.NextDouble() * 1e6, [] {});
  }
  struct NopHandler : sim::EventHandler {
    void OnEvent() override {}
  } handler;
  queue.SchedulePeriodic(1.0, 1.0, &handler);
  for (auto _ : state) {
    sim::EventQueue::Fired fired;
    queue.Pop(&fired);
    fired.fn();
    queue.Rearm(fired.periodic);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePeriodicTick)->Arg(16)->Arg(4096);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngNext);

void BM_ZipfAliasSampling(benchmark::State& state) {
  const auto pmf = sim::ZipfPmf(static_cast<std::size_t>(state.range(0)),
                                0.95);
  sim::AliasSampler sampler(pmf);
  sim::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.Sample(rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfAliasSampling)->Arg(1000)->Arg(100000);

void BM_ProgramBuild(benchmark::State& state) {
  const auto probs = sim::ZipfPmf(1000, 0.95);
  const auto config = broadcast::DiskConfig::Paper();
  for (auto _ : state) {
    auto layout = broadcast::BuildPushLayout(probs, config, 100, 0);
    auto schedule =
        broadcast::BuildSchedule(layout.disk_pages, config.rel_freqs);
    benchmark::DoNotOptimize(schedule.data());
  }
}
BENCHMARK(BM_ProgramBuild);

void BM_DistanceToNext(benchmark::State& state) {
  const auto probs = sim::ZipfPmf(1000, 0.95);
  const auto config = broadcast::DiskConfig::Paper();
  auto layout = broadcast::BuildPushLayout(probs, config, 100, 0);
  const broadcast::BroadcastProgram program(
      broadcast::BuildSchedule(layout.disk_pages, config.rel_freqs), 1000);
  sim::Rng rng(3);
  for (auto _ : state) {
    const auto pos = static_cast<std::uint32_t>(
        rng.NextBounded(program.Length()));
    const auto page = static_cast<broadcast::PageId>(rng.NextBounded(1000));
    benchmark::DoNotOptimize(program.DistanceToNext(pos, page));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DistanceToNext);

// End-to-end: simulated broadcast units per second of wall-clock for a
// full-scale IPP system, at light (TTR 10) and heavy (TTR 250) backchannel
// load.
void BM_EndToEndSlots(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::SystemConfig config;
    config.think_time_ratio = static_cast<double>(state.range(0));
    core::System system(config);
    system.mc().Start();
    if (system.vc() != nullptr) system.vc()->Start();
    state.ResumeTiming();
    system.simulator().RunUntil(20000.0);
    benchmark::DoNotOptimize(system.server().TotalSlots());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("items = broadcast units");
}
BENCHMARK(BM_EndToEndSlots)->Arg(10)->Arg(250)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of benchmark_main: the provenance gate must run
// before any measurement, and the report context carries the bdisk build
// stamp so recorded JSON says what was measured (the library_build_type
// field google-benchmark emits describes the *benchmark library*, which
// is a debug build on some toolchains — not this code).
int main(int argc, char** argv) {
  bdisk::bench::RequireOptimizedBuild("bench_micro_kernel");
  benchmark::AddCustomContext("bdisk_build_type", bdisk::bench::BuildType());
  benchmark::AddCustomContext("bdisk_git_rev", bdisk::bench::GitRev());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
