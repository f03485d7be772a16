#ifndef BDISK_CORE_SYSTEM_H_
#define BDISK_CORE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adaptive/client_controller.h"
#include "adaptive/server_controller.h"
#include "broadcast/broadcast_program.h"
#include "broadcast/page_ranking.h"
#include "client/measured_client.h"
#include "client/virtual_client.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/server_stack.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"
#include "server/broadcast_server.h"
#include "sim/simulator.h"
#include "workload/access_pattern.h"

namespace bdisk::core {

/// Measurement protocol for steady-state experiments (paper §4): warm the
/// MC cache, skip `post_fill_accesses` further accesses ("started
/// measurements only 4000 accesses after the cache filled up"), then record
/// response times until batch-means stability (or the access cap).
struct SteadyStateProtocol {
  std::uint64_t post_fill_accesses = 4000;
  std::uint64_t min_measured_accesses = 4000;
  std::uint64_t max_measured_accesses = 40000;
  std::uint64_t batch_size = 1000;
  double tolerance = 0.02;
  sim::SimTime max_sim_time = 2.0e8;
  /// The warm-up phase normally ends when the cache is full (the paper's
  /// read-only criterion). With volatile data the cache can lose pages as
  /// fast as it gains them and may never be literally full, so the phase
  /// also ends after this many accesses.
  std::uint64_t max_fill_accesses = 20000;

  /// The short protocol of the tools' --quick and the figure benches'
  /// BDISK_BENCH_QUICK: seconds per point, at a looser tolerance.
  static SteadyStateProtocol Quick() {
    return {.post_fill_accesses = 500,
            .min_measured_accesses = 1000,
            .max_measured_accesses = 3000,
            .batch_size = 500,
            .tolerance = 0.1};
  }
};

/// Measurement protocol for warm-up experiments (paper §4.1.3): start with
/// a cold cache and record when each fraction of the ideal cache contents
/// is first reached, up to `target_fraction`.
struct WarmupProtocol {
  std::vector<double> fractions = {0.1, 0.2, 0.3, 0.4, 0.5,
                                   0.6, 0.7, 0.8, 0.9, 0.95};
  double target_fraction = 0.95;
  sim::SimTime max_sim_time = 2.0e8;
};

/// Builds the artifacts for `config` from scratch.
std::shared_ptr<const SystemArtifacts> BuildArtifacts(
    const SystemConfig& config);

/// Serializes exactly the config fields the artifacts depend on. Two
/// configs with equal keys produce identical artifacts; in particular the
/// seed, think-time, cache-policy, and protocol fields are excluded, which
/// is what lets replications (seed + i) share one set.
std::string ArtifactKey(const SystemConfig& config);

/// Thread-safe keyed cache of shared artifacts, used by RunSweep so sweep
/// setup stops redoing identical pattern/program builds per point.
class ArtifactCache {
 public:
  /// Returns the cached artifacts for `config`'s key, building on miss.
  std::shared_ptr<const SystemArtifacts> Get(const SystemConfig& config);

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const SystemArtifacts>>
      cache_;
};

/// One fully wired simulated system, built from a SystemConfig: the
/// ServerStack (program, server, fault injector, PullBW controller) plus
/// the measured client, the virtual client and the update generator, which
/// submit straight to its BroadcastServer.
///
/// A System instance supports exactly one run (RunSteadyState or
/// RunWarmup); build a fresh System per configuration point. Components are
/// exposed read-only for tests and diagnostics.
class System {
 public:
  /// Builds (and validates) the whole system. Aborts on invalid config.
  /// `artifacts` (optional) supplies pre-built shared artifacts; they must
  /// come from a config with the same ArtifactKey. Null builds them fresh.
  explicit System(const SystemConfig& config,
                  std::shared_ptr<const SystemArtifacts> artifacts = nullptr);

  /// Runs the steady-state protocol and returns the measurements.
  RunResult RunSteadyState(const SteadyStateProtocol& protocol = {});

  /// Runs the warm-up protocol and returns the measurements (including the
  /// warm-up trajectory).
  RunResult RunWarmup(const WarmupProtocol& protocol = {});

  /// Attaches `registry` (not owned; must outlive the run) to every
  /// instrumented component: the server publishes windowed slot-mix and
  /// queue-depth time-series, the MC's cache streams eviction values.
  /// Call before Run*. Consumes no randomness and schedules no events, so
  /// the simulated trajectory is bit-identical with or without it.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Attaches the structured trace `sink` (not owned) to the server and
  /// the measured client. Call before Run*. Same bit-identity guarantee as
  /// AttachMetrics.
  void AttachTrace(obs::TraceSink* sink);

  /// Attaches the windowed telemetry `collector` (not owned) to the server
  /// (slot decisions, submit outcomes) and the measured client (completed
  /// accesses). Call before Run*. The collector is flushed (partial window
  /// closed) when the run ends. Same bit-identity guarantee as
  /// AttachMetrics.
  void AttachWindowedCollector(obs::WindowedCollector* collector);

  /// Attaches the wall-clock phase `profiler` (not owned) to the kernel,
  /// the server, and (via the simulator pointer the clients already hold)
  /// the virtual and measured clients. Call before Run*. The profiler is
  /// finalized (clock anchored) when the run ends; its `prof.*` section is
  /// merged into SnapshotMetrics() output. Same bit-identity guarantee as
  /// AttachMetrics: no randomness, no events — only wall-clock reads.
  void AttachProfiler(obs::PhaseProfiler* profiler);

  /// Arms the anomaly flight `recorder` (not owned): completed telemetry
  /// windows are evaluated against its triggers, and on fire the dump
  /// carries a full SnapshotMetrics() document plus the trailing trace
  /// window when a sink is attached. Requires AttachWindowedCollector
  /// first; call AttachTrace before this to include the trace.
  void AttachFlightRecorder(obs::FlightRecorder* recorder);

  /// Attaches the streaming telemetry `bus` (not owned): each completed
  /// telemetry window becomes a `window` frame (counter deltas measured by
  /// a probe over the same lifetime counters SnapshotMetrics exports, so
  /// frame deltas reconcile exactly against the final snapshot), and run
  /// start/end, degraded-mode edges, and flight-recorder fires become
  /// lifecycle frames. Requires AttachWindowedCollector first; order
  /// relative to AttachFlightRecorder does not matter. Same bit-identity
  /// guarantee as AttachMetrics: the bus consumes no randomness and
  /// schedules no events.
  void AttachTelemetryBus(obs::TelemetryBus* bus);

  /// Copies every lifetime counter and the MC response histogram into
  /// `registry`, so ToJson() yields one self-contained snapshot. Counters
  /// are cheap to keep always-on in their components; snapshotting at
  /// collect time is what keeps the hot path free of registry traffic.
  void SnapshotMetrics(obs::MetricsRegistry* registry) const;

  /// The configuration this system was built from.
  const SystemConfig& config() const { return config_; }

  /// The generated broadcast program (empty schedule for Pure-Pull).
  const broadcast::BroadcastProgram& program() const {
    return stack_.server().program();
  }

  /// The page-to-disk layout (disk sizes after truncation etc.); only
  /// meaningful when a push program exists.
  const broadcast::PushLayout& layout() const { return artifacts_->layout; }

  /// Aggregate (server-side) and measured-client access patterns.
  const workload::AccessPattern& canonical_pattern() const {
    return artifacts_->canonical_pattern;
  }
  const workload::AccessPattern& mc_pattern() const { return mc_pattern_; }

  /// Components (valid for the lifetime of the System).
  sim::Simulator& simulator() { return stack_.simulator(); }
  server::BroadcastServer& server() { return stack_.server(); }
  client::MeasuredClient& mc() { return *mc_; }
  /// Null when the configuration has no virtual client (Pure-Push, or
  /// vc_enabled == false).
  client::VirtualClient* vc() { return vc_.get(); }

  /// Adaptive controllers; null unless enabled in the config.
  adaptive::ServerController* server_controller() {
    return stack_.server_controller();
  }
  adaptive::ClientController* client_controller() {
    return client_controller_.get();
  }

  /// Volatile-data update process; null unless update_rate > 0.
  server::UpdateGenerator* update_generator() {
    return update_generator_.get();
  }

 private:
  RunResult CollectResult(bool converged) const;
  void TimedRun(sim::SimTime max_sim_time);

  /// Every component the counter table reads, as SnapshotMetrics and the
  /// telemetry probe see them.
  CounterSources counter_sources() const;
  std::vector<std::pair<std::string, std::string>> TelemetryProvenance() const;

  SystemConfig config_;
  std::shared_ptr<const SystemArtifacts> artifacts_;
  workload::AccessPattern mc_pattern_;
  ServerStack stack_;
  std::unique_ptr<client::MeasuredClient> mc_;
  std::unique_ptr<client::VirtualClient> vc_;
  std::unique_ptr<adaptive::ClientController> client_controller_;
  std::unique_ptr<server::UpdateGenerator> update_generator_;

  obs::WindowedCollector* collector_ = nullptr;  // Not owned.
  obs::TraceSink* sink_ = nullptr;               // Not owned.
  obs::PhaseProfiler* profiler_ = nullptr;       // Not owned.
  obs::FlightRecorder* recorder_ = nullptr;      // Not owned.
  obs::TelemetryBus* bus_ = nullptr;             // Not owned.
  bool ran_ = false;
  double wall_seconds_ = 0.0;
};

/// The `k` pages with the highest `values` (ties: lower page id first) —
/// the "ideal" warmed-cache contents under a value metric.
std::vector<broadcast::PageId> TopValuedPages(
    const std::vector<double>& values, std::uint32_t k);

/// The canonical (aggregate / virtual-client) access pattern for a config.
workload::AccessPattern CanonicalPatternForConfig(const SystemConfig& config);

/// The measured client's access pattern for a config (canonical pattern,
/// Noise-perturbed with the config's seed). Identical to what System uses.
workload::AccessPattern McPatternForConfig(const SystemConfig& config);

/// The broadcast program System would generate for a config (empty
/// schedule for Pure-Pull). Used by analysis tools that predict behaviour
/// without running a simulation.
broadcast::BroadcastProgram ProgramForConfig(const SystemConfig& config);

}  // namespace bdisk::core

#endif  // BDISK_CORE_SYSTEM_H_
