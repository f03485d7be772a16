#include "core/system.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <utility>

#include "broadcast/program_builder.h"
#include "cache/value_functions.h"
#include "sim/batch_means.h"
#include "sim/check.h"
#include "sim/zipf.h"

namespace bdisk::core {

namespace {

// Fixed salts give each component an independent, reproducible RNG stream
// (the fault injectors' salts sit with the ServerStack). The retry stream
// is salted, not Split() from the root, so enabling a FaultPlan never
// shifts the streams existing components draw from.
constexpr std::uint64_t kNoiseSalt = 0xBD15C01F5EEDULL;
constexpr std::uint64_t kRetrySalt = 0x2E72'BAC0FF5EULL;

workload::AccessPattern MakeMcPattern(const workload::AccessPattern& canonical,
                                      const SystemConfig& config) {
  if (config.noise == 0.0) return canonical;
  sim::Rng noise_rng(config.seed ^ kNoiseSalt);
  return canonical.WithNoise(config.noise, noise_rng);
}

// The one construction path for the push program. System's constructor and
// the standalone ProgramForConfig both come through here, so the two can
// never drift; `layout_out` (optional) receives the page-to-disk layout.
broadcast::BroadcastProgram BuildProgramFromPattern(
    const workload::AccessPattern& canonical, const SystemConfig& config,
    broadcast::PushLayout* layout_out) {
  std::vector<broadcast::PageId> schedule;
  if (config.mode != DeliveryMode::kPurePull) {
    broadcast::PushLayout layout = broadcast::BuildPushLayout(
        canonical.probs(), config.disks, config.EffectiveOffset(),
        config.chop_count);
    schedule = broadcast::BuildSchedule(layout.disk_pages,
                                        config.disks.rel_freqs,
                                        config.chunking);
    if (layout_out != nullptr) *layout_out = std::move(layout);
  }
  return broadcast::BroadcastProgram(std::move(schedule),
                                     config.server_db_size);
}

}  // namespace

workload::AccessPattern CanonicalPatternForConfig(const SystemConfig& config) {
  return workload::AccessPattern::Zipf(config.server_db_size,
                                       config.zipf_theta);
}

workload::AccessPattern McPatternForConfig(const SystemConfig& config) {
  return MakeMcPattern(CanonicalPatternForConfig(config), config);
}

broadcast::BroadcastProgram ProgramForConfig(const SystemConfig& config) {
  return BuildProgramFromPattern(CanonicalPatternForConfig(config), config,
                                 nullptr);
}

std::shared_ptr<const SystemArtifacts> BuildArtifacts(
    const SystemConfig& config) {
  auto artifacts =
      std::make_shared<SystemArtifacts>(CanonicalPatternForConfig(config));
  artifacts->program = std::make_shared<const broadcast::BroadcastProgram>(
      BuildProgramFromPattern(artifacts->canonical_pattern, config,
                              &artifacts->layout));
  // PIX whenever a push program exists; P for Pure-Pull (§3.1).
  artifacts->canonical_values =
      artifacts->program->Empty()
          ? cache::PValues(artifacts->canonical_pattern.probs())
          : cache::PixValues(artifacts->canonical_pattern.probs(),
                             *artifacts->program);
  return artifacts;
}

std::string ArtifactKey(const SystemConfig& config) {
  std::ostringstream key;
  // %a prints the exact bits of the double, so two thetas compare equal in
  // the key iff they produce the identical Zipf pattern.
  char theta[64];
  std::snprintf(theta, sizeof(theta), "%a", config.zipf_theta);
  key << config.server_db_size << '|' << theta;
  if (config.mode == DeliveryMode::kPurePull) {
    // No push program: the disk shape, offset, chop, and chunking fields
    // play no part, so Pure-Pull points share regardless of them.
    key << "|pull";
    return key.str();
  }
  key << '|' << config.EffectiveOffset() << '|' << config.chop_count << '|'
      << static_cast<int>(config.chunking) << "|d";
  for (const std::uint32_t s : config.disks.sizes) key << ',' << s;
  key << "|f";
  for (const std::uint32_t f : config.disks.rel_freqs) key << ',' << f;
  return key.str();
}

std::shared_ptr<const SystemArtifacts> ArtifactCache::Get(
    const SystemConfig& config) {
  const std::string key = ArtifactKey(config);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Build outside the lock: misses are the expensive path and distinct
  // keys should build concurrently. A racing duplicate build of the same
  // key is harmless (identical artifacts; first insert wins).
  std::shared_ptr<const SystemArtifacts> built = BuildArtifacts(config);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = cache_.emplace(key, std::move(built));
  return it->second;
}

std::vector<broadcast::PageId> TopValuedPages(
    const std::vector<double>& values, std::uint32_t k) {
  BDISK_CHECK_MSG(k <= values.size(), "k exceeds the database size");
  std::vector<broadcast::PageId> pages(values.size());
  std::iota(pages.begin(), pages.end(), 0U);
  // O(n log k): only the top k need ordering. The explicit index tie-break
  // makes the comparator a total order, so the result is the exact prefix
  // a stable full sort on `values[a] > values[b]` would produce.
  std::partial_sort(pages.begin(), pages.begin() + k, pages.end(),
                    [&values](broadcast::PageId a, broadcast::PageId b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  pages.resize(k);
  return pages;
}

System::System(const SystemConfig& config,
               std::shared_ptr<const SystemArtifacts> artifacts)
    : config_(config),
      artifacts_(artifacts != nullptr ? std::move(artifacts)
                                      : BuildArtifacts(config)),
      mc_pattern_(MakeMcPattern(artifacts_->canonical_pattern, config)),
      stack_(config, *artifacts_, ServerStack::Wire::kInProcess) {
  // Stream order: the stack split the server's stream first.
  sim::Rng& root = stack_.root();
  sim::Rng mc_rng = root.Split();
  sim::Rng vc_rng = root.Split();
  sim::Simulator* simulator = &stack_.simulator();
  server::BroadcastServer* server = &stack_.server();

  // --- Value metrics ----------------------------------------------------
  // The canonical (VC-side) values are part of the shared artifacts; the
  // MC's values differ only when its pattern is Noise-perturbed.
  const bool push_exists = !server->program().Empty();
  const std::vector<double>& vc_values = artifacts_->canonical_values;
  const std::vector<double> mc_values =
      config.noise == 0.0
          ? artifacts_->canonical_values
          : (push_exists
                 ? cache::PixValues(mc_pattern_.probs(), server->program())
                 : cache::PValues(mc_pattern_.probs()));

  // --- Measured client ---------------------------------------------------
  client::MeasuredClientOptions mc_options;
  mc_options.cache_size = config.cache_size;
  mc_options.policy = config.mc_policy.value_or(
      push_exists ? cache::PolicyKind::kPix : cache::PolicyKind::kP);
  mc_options.think_time = config.mc_think_time;
  mc_options.use_backchannel = (config.mode != DeliveryMode::kPurePush);
  mc_options.thres_perc =
      (config.mode == DeliveryMode::kIpp) ? config.thres_perc : 0.0;
  mc_options.prefetch = config.mc_prefetch;
  // Unscheduled pages have no push safety net; retry a (possibly dropped)
  // pull after roughly one would-be cycle. See DESIGN.md, Substitutions.
  const double cycle = push_exists
                           ? static_cast<double>(server->program().Length())
                           : static_cast<double>(config.server_db_size);
  if (mc_options.use_backchannel) {
    mc_options.retry_interval =
        config.mc_retry_interval > 0.0 ? config.mc_retry_interval : cycle;
  }
  mc_ = std::make_unique<client::MeasuredClient>(
      simulator, server, mc_pattern_, mc_options, mc_rng,
      TopValuedPages(mc_values, config.cache_size));

  // --- Virtual client ----------------------------------------------------
  if (config.mode != DeliveryMode::kPurePush && config.vc_enabled) {
    client::VirtualClientOptions vc_options;
    vc_options.mc_think_time = config.mc_think_time;
    vc_options.think_time_ratio = config.think_time_ratio;
    vc_options.steady_state_perc = config.steady_state_perc;
    vc_options.thres_perc =
        (config.mode == DeliveryMode::kIpp) ? config.thres_perc : 0.0;
    vc_options.cache_size = config.cache_size;
    // fault.request_delay re-times submissions through the event heap; the
    // fused batch path cannot represent that, so delay forces unfused.
    vc_options.fused = config.vc_fusion && config.fault.request_delay == 0.0;
    vc_ = std::make_unique<client::VirtualClient>(
        simulator, server, artifacts_->canonical_pattern,
        TopValuedPages(vc_values, config.cache_size), vc_options, vc_rng);
  }

  // --- Volatile data (extension; [Acha96b]) ------------------------------
  if (config.update_rate > 0.0) {
    update_generator_ = std::make_unique<server::UpdateGenerator>(
        simulator, config.update_rate,
        sim::ZipfPmf(config.server_db_size,
                     config.update_zipf_theta.value_or(config.zipf_theta)),
        root.Split());
    update_generator_->AddListener(mc_.get());
    if (vc_) update_generator_->AddListener(vc_.get());
  }

  // --- Client robustness (bdisk::fault; ROBUSTNESS.md) -------------------
  if (config.fault.Enabled() && mc_options.use_backchannel) {
    client::RobustPullOptions robust;
    robust.timeout =
        config.fault.mc_timeout > 0.0 ? config.fault.mc_timeout : cycle;
    robust.max_retries = config.fault.mc_max_retries;
    robust.backoff = config.fault.mc_backoff;
    robust.backoff_cap = config.fault.mc_backoff_cap > 0.0
                             ? config.fault.mc_backoff_cap
                             : 8.0 * robust.timeout;
    robust.jitter = config.fault.mc_jitter;
    robust.dead_threshold = config.fault.mc_dead_threshold;
    robust.probe_interval = config.fault.mc_probe_interval > 0.0
                                ? config.fault.mc_probe_interval
                                : cycle;
    mc_->EnableRobustness(robust, sim::Rng(config.seed ^ kRetrySalt));
  }

  // --- Adaptive threshold (extension; paper §6) --------------------------
  if (config.adaptive_threshold) {
    client_controller_ = std::make_unique<adaptive::ClientController>(
        simulator, mc_.get(), config.client_controller);
  }
}

void System::AttachMetrics(obs::MetricsRegistry* registry) {
  BDISK_CHECK_MSG(!ran_, "attach observability before running");
  BDISK_CHECK_MSG(registry != nullptr, "AttachMetrics needs a registry");
  stack_.server().EnableMetrics(registry);
  mc_->EnableMetrics(registry);
}

void System::AttachTrace(obs::TraceSink* sink) {
  BDISK_CHECK_MSG(!ran_, "attach observability before running");
  sink_ = sink;
  stack_.server().SetTraceSink(sink);
  mc_->SetTraceSink(sink);
}

void System::AttachWindowedCollector(obs::WindowedCollector* collector) {
  BDISK_CHECK_MSG(!ran_, "attach observability before running");
  BDISK_CHECK_MSG(collector != nullptr,
                  "AttachWindowedCollector needs a collector");
  collector_ = collector;
  stack_.server().SetWindowedCollector(collector);
  mc_->SetWindowedCollector(collector);
}

void System::AttachProfiler(obs::PhaseProfiler* profiler) {
  BDISK_CHECK_MSG(!ran_, "attach observability before running");
  BDISK_CHECK_MSG(profiler != nullptr, "AttachProfiler needs a profiler");
  profiler_ = profiler;
  stack_.simulator().SetPhaseProfiler(profiler);
  stack_.server().SetPhaseProfiler(profiler);
  // The clients read the profiler through the simulator pointer they
  // already hold, so no per-client wiring is needed.
}

void System::AttachFlightRecorder(obs::FlightRecorder* recorder) {
  BDISK_CHECK_MSG(!ran_, "attach observability before running");
  BDISK_CHECK_MSG(recorder != nullptr,
                  "AttachFlightRecorder needs a recorder");
  BDISK_CHECK_MSG(collector_ != nullptr,
                  "attach a windowed collector before the flight recorder");
  recorder_ = recorder;
  collector_->SetFlightRecorder(recorder);
  recorder->SetTraceSink(sink_);
  recorder->SetSnapshot(
      [this](obs::MetricsRegistry* registry) { SnapshotMetrics(registry); });
  if (bus_ != nullptr) recorder->SetTelemetryBus(bus_);
}

void System::AttachTelemetryBus(obs::TelemetryBus* bus) {
  BDISK_CHECK_MSG(!ran_, "attach observability before running");
  BDISK_CHECK_MSG(bus != nullptr, "AttachTelemetryBus needs a bus");
  BDISK_CHECK_MSG(collector_ != nullptr,
                  "attach a windowed collector before the telemetry bus");
  bus_ = bus;
  // SetProbe captures the base counter vector immediately: the server's
  // constructor already made the first slot decision, so counters are not
  // zero at attach time. Frames carry deltas from this base, and run_end
  // republishes it so a consumer can reconcile base + sum(deltas) against
  // the final snapshot exactly.
  bus->SetProbe([this](std::vector<obs::CounterSample>* out) {
    ProbeCounters(counter_sources(), out);
  });
  collector_->SetTelemetryBus(bus);
  stack_.server().SetTelemetryBus(bus);
  if (recorder_ != nullptr) recorder_->SetTelemetryBus(bus);
}

CounterSources System::counter_sources() const {
  CounterSources sources = stack_.counter_sources();
  sources.kernel = &stack_.simulator();
  sources.mc = mc_.get();
  sources.vc = vc_.get();
  sources.updates = update_generator_.get();
  sources.bus = bus_;
  return sources;
}

std::vector<std::pair<std::string, std::string>> System::TelemetryProvenance()
    const {
  // Only trajectory-relevant knobs: vc_fusion is deliberately excluded so
  // frame streams stay byte-identical between the fused production path
  // and the unfused oracle.
  std::vector<std::pair<std::string, std::string>> p;
  p.emplace_back("mode", DeliveryModeName(config_.mode));
  p.emplace_back("db_size", std::to_string(config_.server_db_size));
  p.emplace_back("seed", std::to_string(config_.seed));
  {
    std::ostringstream os;
    os << config_.think_time_ratio;
    p.emplace_back("think_time_ratio", os.str());
  }
  {
    std::ostringstream os;
    os << config_.obs_window;
    p.emplace_back("obs_window", os.str());
  }
  p.emplace_back("fault", config_.fault.Enabled() ? "on" : "off");
  return p;
}

void System::SnapshotMetrics(obs::MetricsRegistry* registry) const {
  BDISK_CHECK_MSG(registry != nullptr, "SnapshotMetrics needs a registry");
  const auto gauge = [registry](const char* name, double v) {
    registry->GetGauge(name)->Set(v);
  };

  SnapshotCounters(counter_sources(), registry);
  const server::BroadcastServer& server = stack_.server();
  gauge("server.queue.depth_high_water", server.queue().DepthHighWater());
  gauge("server.queue.drop_rate", server.queue().DropRate());
  gauge("server.pull_bw", server.pull_bw());
  gauge("client.mc.pull_wait_ratio", mc_->PullWaitRatio());
  registry->ExportHistogram("client.mc.response", mc_->response_histogram());
  if (collector_ != nullptr) collector_->PublishTo(registry);
  const sim::Simulator& simulator = stack_.simulator();
  gauge("kernel.heap_high_water",
        static_cast<double>(simulator.HeapHighWater()));
  gauge("kernel.wall_seconds", wall_seconds_);
  gauge("kernel.sim_time_end", simulator.Now());

  // prof.* is wall-clock data (nondeterministic across runs); comparators
  // skip it via obs::kNondeterministicMetricSubstrings.
  if (profiler_ != nullptr) profiler_->MergeInto(registry);
}

void System::TimedRun(sim::SimTime max_sim_time) {
  sim::Simulator& simulator = stack_.simulator();
  if (bus_ != nullptr) {
    bus_->EmitRunStart(simulator.Now(), TelemetryProvenance());
  }
  const auto start = std::chrono::steady_clock::now();
  simulator.RunUntil(max_sim_time);
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  // Close the collector's partial window so the tail of the run is visible
  // in Windows() and snapshots (outside the timed region by a hair, but
  // Finish() is O(1) either way).
  if (collector_ != nullptr) collector_->Finish();
  // Anchor the profiler's closing calibration point as close to the run as
  // possible (idempotent; exports would otherwise do it lazily).
  if (profiler_ != nullptr) profiler_->Finalize();
  // run_end goes out after Finish() so the final partial window's frame
  // precedes it; it carries the closing deltas that make the stream
  // reconcile exactly even when trailing window frames were dropped.
  if (bus_ != nullptr) bus_->EmitRunEnd(simulator.Now());
}

RunResult System::CollectResult(bool converged) const {
  const server::BroadcastServer& server = stack_.server();
  const sim::Simulator& simulator = stack_.simulator();
  const fault::FaultInjector* injector = stack_.server_faults();
  RunResult result;
  result.response_stats = mc_->response_times();
  result.mean_response = result.response_stats.Mean();
  const obs::LatencyHistogram& rh = mc_->response_histogram();
  if (rh.Count() > 0) {
    result.response_p50 = rh.Percentile(0.50);
    result.response_p90 = rh.Percentile(0.90);
    result.response_p95 = rh.Percentile(0.95);
    result.response_p99 = rh.Percentile(0.99);
    result.response_max = rh.Max();
  }
  result.mc_accesses = mc_->TotalAccesses();
  result.mc_hit_rate =
      mc_->TotalAccesses() == 0
          ? 0.0
          : static_cast<double>(mc_->CacheHits()) /
                static_cast<double>(mc_->TotalAccesses());
  result.mc_pulls_sent = mc_->PullRequestsSent();
  result.mc_retries_sent = mc_->RetriesSent();
  result.mc_prefetches = mc_->Prefetches();
  result.mc_invalidations = mc_->InvalidationsSeen();
  result.mc_cache_evictions = mc_->cache().Evictions();
  result.mc_cache_removals = mc_->cache().Removals();
  if (vc_) {
    result.vc_requests_generated = vc_->RequestsGenerated();
    result.vc_cache_hits = vc_->CacheHits();
    result.vc_filtered = vc_->FilteredByThreshold();
    result.vc_submitted = vc_->RequestsSubmitted();
  }
  if (update_generator_) {
    result.updates_generated = update_generator_->UpdateCount();
  }

  const server::PullQueue& queue = server.queue();
  result.requests_submitted = queue.SubmittedCount();
  result.requests_accepted = queue.AcceptedCount();
  result.requests_coalesced = queue.CoalescedCount();
  result.requests_dropped = queue.DroppedCount();
  result.requests_shed = queue.ShedCount();
  result.requests_dropped_outage = queue.OutageDropCount();
  result.drop_rate = queue.DropRate();
  result.queue_depth_high_water = queue.DepthHighWater();

  if (injector != nullptr) {
    result.fault_slots_lost = injector->SlotsLost();
    result.fault_slots_corrupted = injector->SlotsCorrupted();
    result.fault_requests_lost = injector->RequestsLost();
    result.fault_requests_delayed = injector->RequestsDelayed();
    result.outage_slots = server.OutageSlots();
    result.outages_started = server.OutagesStarted();
    result.degraded_enters = server.DegradedEnters();
    result.degraded_exits = server.DegradedExits();
    result.mc_timeouts_fired = mc_->TimeoutsFired();
    result.mc_abandoned = mc_->Abandoned();
    result.mc_fallbacks = mc_->Fallbacks();
    result.mc_probes_sent = mc_->ProbesSent();
    result.mc_backchannel_deaths = mc_->BackchannelDeaths();
    result.mc_backchannel_recoveries = mc_->BackchannelRecoveries();
  }

  const double slots = static_cast<double>(server.TotalSlots());
  if (slots > 0) {
    result.push_slot_frac = static_cast<double>(server.PushSlots()) / slots;
    result.pull_slot_frac = static_cast<double>(server.PullSlots()) / slots;
    result.idle_slot_frac = static_cast<double>(server.IdleSlots()) / slots;
  }
  result.major_cycle_len = server.program().Length();

  result.kernel.events_executed = simulator.EventsExecuted();
  result.kernel.heap_high_water = simulator.HeapHighWater();
  result.kernel.periodic_rearms = simulator.PeriodicRearms();
  result.kernel.lazy_arrivals_fused = simulator.LazyArrivalsFused();
  result.kernel.lazy_drains = simulator.LazyDrains();
  result.kernel.stale_discarded = simulator.StaleDiscarded();
  result.kernel.periodic_spans = simulator.PeriodicSpans();
  result.kernel.wall_seconds = wall_seconds_;
  if (wall_seconds_ > 1e-9) {
    result.kernel.events_per_wall_second =
        static_cast<double>(simulator.EventsExecuted()) / wall_seconds_;
    result.kernel.sim_units_per_wall_second = simulator.Now() / wall_seconds_;
  }

  result.sim_time_end = simulator.Now();
  result.converged = converged;
  return result;
}

RunResult System::RunSteadyState(const SteadyStateProtocol& protocol) {
  BDISK_CHECK_MSG(!ran_, "a System supports exactly one run");
  ran_ = true;

  enum class Phase { kFilling, kPostFill, kMeasuring };
  Phase phase = Phase::kFilling;
  std::uint64_t post_fill_count = 0;
  std::uint64_t measured_count = 0;
  bool converged = false;
  sim::BatchMeans batch(protocol.batch_size, protocol.tolerance);

  mc_->SetOnAccessComplete([&, this](double response_time) {
    switch (phase) {
      case Phase::kFilling:
        if (mc_->cache().IsFull() ||
            mc_->TotalAccesses() >= protocol.max_fill_accesses) {
          phase = Phase::kPostFill;
        }
        break;
      case Phase::kPostFill:
        if (++post_fill_count >= protocol.post_fill_accesses) {
          phase = Phase::kMeasuring;
          mc_->SetRecording(true);
        }
        break;
      case Phase::kMeasuring: {
        const bool stable = batch.Add(response_time);
        ++measured_count;
        if ((stable && measured_count >= protocol.min_measured_accesses) ||
            measured_count >= protocol.max_measured_accesses) {
          converged = stable;
          stack_.simulator().Stop();
        }
        break;
      }
    }
  });

  mc_->Start();
  if (vc_) vc_->Start();
  if (update_generator_) update_generator_->Start();
  stack_.Start();
  if (client_controller_) client_controller_->Start();
  TimedRun(protocol.max_sim_time);
  return CollectResult(converged);
}

RunResult System::RunWarmup(const WarmupProtocol& protocol) {
  BDISK_CHECK_MSG(!ran_, "a System supports exactly one run");
  ran_ = true;

  const client::WarmupTracker* tracker = mc_->warmup_tracker();
  BDISK_CHECK_MSG(tracker != nullptr, "warm-up tracking not enabled");

  bool reached = false;
  mc_->SetOnAccessComplete([&, this, tracker](double /*response_time*/) {
    if (tracker->Fraction() >= protocol.target_fraction) {
      reached = true;
      stack_.simulator().Stop();
    }
  });

  mc_->Start();
  if (vc_) vc_->Start();
  if (update_generator_) update_generator_->Start();
  stack_.Start();
  if (client_controller_) client_controller_->Start();
  TimedRun(protocol.max_sim_time);

  RunResult result = CollectResult(reached);
  result.warmup.reserve(protocol.fractions.size());
  for (const double f : protocol.fractions) {
    result.warmup.push_back(WarmupPoint{f, tracker->TimeToFraction(f)});
  }
  return result;
}

}  // namespace bdisk::core
