#ifndef BDISK_CORE_CONFIG_H_
#define BDISK_CORE_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>

#include "adaptive/client_controller.h"
#include "adaptive/server_controller.h"
#include "broadcast/disk_config.h"
#include "broadcast/program_builder.h"
#include "cache/cache.h"
#include "fault/fault_plan.h"

namespace bdisk::core {

/// The three data-delivery algorithms compared in the paper (§2.3).
enum class DeliveryMode {
  /// Broadcast Disks only: PullBW = 0, no backchannel. On a miss, clients
  /// wait for the page to come around on the periodic broadcast.
  kPurePush,
  /// Request/response with snooping: PullBW = 100%, no periodic broadcast.
  /// Every miss is pulled; all clients snoop all responses.
  kPurePull,
  /// Interleaved Push and Pull: periodic broadcast plus pull responses,
  /// split by PullBW, with optional client-side thresholding.
  kIpp,
};

/// Name of a delivery mode ("Push", "Pull", "IPP").
const char* DeliveryModeName(DeliveryMode mode);

/// Complete description of one simulated configuration. Field defaults are
/// the paper's Table 3 settings.
struct SystemConfig {
  DeliveryMode mode = DeliveryMode::kIpp;

  // --- Server / broadcast program (Table 2) ---
  /// Number of distinct pages in the database (ServerDBSize).
  std::uint32_t server_db_size = 1000;
  /// Multi-disk shape: sizes {100,400,500}, relative frequencies {3,2,1}.
  broadcast::DiskConfig disks = broadcast::DiskConfig::Paper();
  /// Backchannel queue capacity in distinct pages (ServerQSize).
  std::uint32_t server_queue_size = 100;
  /// Fraction of slots usable for pulled pages (PullBW); only meaningful
  /// for kIpp — the pure modes force 0 / 1.
  double pull_bw = 0.5;
  /// Client-side threshold fraction (ThresPerc); kIpp only.
  double thres_perc = 0.0;
  /// Pages truncated from the push schedule, coldest first (Experiment 3).
  std::uint32_t chop_count = 0;
  /// Offset: hottest pages shifted to the slowest disk. Defaults to
  /// CacheSize, as in all paper experiments ("All results presented in this
  /// paper use OffSet").
  std::optional<std::uint32_t> offset;
  /// How non-divisible disks are chunked (see program_builder.h).
  broadcast::ChunkingMode chunking = broadcast::ChunkingMode::kBalanced;

  // --- Workload (Table 1) ---
  /// Zipf skew of all clients' access patterns.
  double zipf_theta = 0.95;
  /// Measured-client access-pattern perturbation (Noise), in [0,1].
  double noise = 0.0;

  // --- Clients (Table 1) ---
  /// Client cache size in pages.
  std::uint32_t cache_size = 100;
  /// Measured client's fixed think time, in broadcast units.
  double mc_think_time = 20.0;
  /// Virtual-client intensity: VC think time is exponential with mean
  /// mc_think_time / think_time_ratio.
  double think_time_ratio = 10.0;
  /// Fraction of the represented population in steady state.
  double steady_state_perc = 0.95;
  /// Whether the virtual client generates load at all. Forced off for
  /// kPurePush (no backchannel exists).
  bool vc_enabled = true;
  /// Virtual-client event fusion: batch VC arrivals through the kernel's
  /// lazy-source drain instead of one heap event each. Bit-identical
  /// trajectory either way (see DESIGN.md); off runs the evented VC, the
  /// semantic oracle the fused drain is checked against.
  bool vc_fusion = true;
  /// Measured-client retry interval for pulls of unscheduled pages; 0 picks
  /// an automatic default (one major cycle, or ServerDBSize slots for
  /// Pure-Pull). See MeasuredClientOptions::retry_interval.
  double mc_retry_interval = 0.0;
  /// Measured-client replacement-policy override for ablation studies.
  /// Default (nullopt) follows the paper: PIX whenever a push program
  /// exists, P for Pure-Pull.
  std::optional<cache::PolicyKind> mc_policy;

  // --- Volatile data (extension; lifts §1.4 assumption 3 as in the
  // companion study [Acha96b]) ---
  /// Server-side page updates per broadcast unit (Poisson); 0 = read-only,
  /// the paper's baseline. Updated pages are invalidated in client caches
  /// via an (instantaneous, free) invalidation report.
  double update_rate = 0.0;
  /// Zipf skew of the update distribution; defaults to zipf_theta (hot
  /// pages change most often).
  std::optional<double> update_zipf_theta;

  // --- Prefetching (extension; [Acha96a], cited in §5) ---
  /// Measured client opportunistically prefetches high p*t pages from the
  /// broadcast. Requires a push program (not kPurePull).
  bool mc_prefetch = false;

  // --- Observability (no effect on the simulated trajectory) ---
  /// Windowed-telemetry window width in broadcast units
  /// (obs::WindowedCollector); used when a collector is attached.
  double obs_window = 100.0;
  /// Flight-recorder trigger spec, e.g. "drop_rate>0.5,p99>2000,
  /// queue_depth>90"; empty = disarmed. Validated against
  /// obs::ParseFlightTriggerSpec.
  std::string flight_recorder;
  /// Flight-recorder dump budget: the recorder re-arms after each dump
  /// until this many have been written (1 = classic one-shot).
  std::uint32_t flight_recorder_max_dumps = 1;
  /// Streaming-telemetry frame destination ("-" stdout, "unix:PATH"
  /// datagram socket, else file path; see obs::MakeFrameSink). Empty =
  /// no telemetry bus.
  std::string frames;

  // --- Fault injection / robustness (bdisk::fault; see ROBUSTNESS.md) ---
  /// Deterministic fault plan: channel loss/corruption, backchannel faults,
  /// server outage windows, client retry knobs, degraded-mode shedding.
  /// All-zero (the default) means the fault layer is compiled out of the
  /// run entirely and the trajectory is bit-identical to a build without it.
  fault::FaultPlan fault;

  // --- Dynamic adaptation (extension; paper §6 future work) ---
  /// Enable the server-side PullBW controller (kIpp only).
  bool adaptive_pull_bw = false;
  /// Enable the client-side threshold controller (kIpp only).
  bool adaptive_threshold = false;
  /// Controller tuning; defaults are sensible for the Table 3 scale.
  adaptive::ServerControllerOptions server_controller;
  adaptive::ClientControllerOptions client_controller;

  /// Root RNG seed; every component derives an independent stream from it.
  std::uint64_t seed = 20260704;

  /// The Offset actually applied (default: cache_size).
  std::uint32_t EffectiveOffset() const {
    return offset.value_or(cache_size);
  }

  /// PullBW after applying the mode override (0, 1, or pull_bw).
  double EffectivePullBw() const;

  /// Returns an error description, or empty string when the configuration
  /// is self-consistent.
  std::string Validate() const;
};

}  // namespace bdisk::core

#endif  // BDISK_CORE_CONFIG_H_
