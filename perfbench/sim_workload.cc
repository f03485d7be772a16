// sim_light and sim_saturated: System::RunSteadyState over a fixed
// simulated span, repeated on fresh Systems until the run's time is spent.
// Each repetition times BuildArtifacts, the System constructor, the
// observer attaches and RunSteadyState from outside. Host-time metrics are
// read from the fastest repetition (FastRate, FastTime); a long pinned-seed
// repetition checks the trajectory and gives the response percentiles.

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/system.h"
#include "obs/frame_sink.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/telemetry_bus.h"
#include "obs/windowed_collector.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using bdisk::obs::Phase;

struct SimWorkload {
  const char* name;
  double think_time_ratio;
  /// Attach the telemetry tier: metrics registry, windowed collector at
  /// the default window, telemetry bus into a discarding sink.
  bool telemetry;
  /// Simulated slots per timed repetition, a few tens of milliseconds of
  /// host time: short enough that some repetitions run while the host
  /// leaves the core alone. The measured-access bounds never stop the run,
  /// so this span ends it.
  double span_slots;
  /// Simulated slots of the pinned-seed repetition: long enough for the
  /// measured client to fill its cache and record a p99 response time.
  double pin_span_slots;
  /// SimDigest of the pinned-seed repetition. A trajectory change must
  /// update it deliberately.
  std::uint64_t pinned_digest;
};

constexpr std::uint64_t kPinnedSeed = 20260704;
/// Host-time metrics come from the fastest repetition. Every repetition
/// does the same amount of simulated work, so none reads fast by accident,
/// and through a slow phase of the host the best of a thousand is steadier
/// than any lower quantile.
constexpr double kFastQuantile = 1.0;

constexpr SimWorkload kSimWorkloads[] = {
    {"sim_light", 10.0, false, 2e5, 5e6, 0x41feadf0cf060e58ULL},
    {"sim_saturated", 250.0, true, 5e4, 2.5e6, 0x2df2755c691c09dfULL},
};

/// Accepts and discards every frame: the telemetry tier's formatting cost
/// without file I/O, and nothing written outside the run's directory.
class DiscardFrameSink final : public bdisk::obs::FrameSink {
 public:
  bool Write(const std::string&) override { return true; }
  std::string Describe() const override { return "discard"; }
};

struct Rep {
  std::uint64_t seed = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double slots = 0.0;
  double slots_per_s = 0.0;
  std::size_t rtt_samples = 0;  // Measured-client accesses recorded.
  double rtt_p50_slots = 0.0;   // Their response-time percentiles.
  double rtt_p99_slots = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> layer;  // Per-layer values of this rep.
};

/// A System with its observers, as SetUp builds it. The observers outlive
/// the System that points at them.
struct Rig {
  std::optional<bdisk::obs::MetricsRegistry> registry;
  std::optional<bdisk::obs::WindowedCollector> collector;
  std::optional<bdisk::obs::TelemetryBus> bus;
  std::unique_ptr<bdisk::core::System> system;
  Clock::time_point start;      // Before BuildArtifacts.
  Clock::time_point artifacts;  // After BuildArtifacts.
  Clock::time_point built;      // After the System constructor.
  Clock::time_point attached;   // After the attaches: set-up done.
};

/// Everything before the timed phase: BuildArtifacts, the System
/// constructor and the attaches (`telemetry` attaches the observer tier,
/// `profiler`, when not null, the phase profiler).
std::unique_ptr<Rig> SetUp(const SimWorkload& w, std::uint64_t seed,
                           bool telemetry,
                           bdisk::obs::PhaseProfiler* profiler) {
  namespace core = bdisk::core;
  core::SystemConfig config;
  config.think_time_ratio = w.think_time_ratio;
  config.seed = seed;
  auto rig = std::make_unique<Rig>();
  rig->start = Clock::now();
  std::shared_ptr<const core::SystemArtifacts> artifacts =
      core::BuildArtifacts(config);
  rig->artifacts = Clock::now();
  rig->system = std::make_unique<core::System>(config, std::move(artifacts));
  rig->built = Clock::now();
  if (telemetry) {
    rig->registry.emplace();
    rig->collector.emplace(config.obs_window);
    rig->bus.emplace(std::make_unique<DiscardFrameSink>());
    rig->system->AttachMetrics(&*rig->registry);
    rig->system->AttachWindowedCollector(&*rig->collector);
    rig->system->AttachTelemetryBus(&*rig->bus);
  }
  if (profiler != nullptr) rig->system->AttachProfiler(profiler);
  rig->attached = Clock::now();
  return rig;
}

/// One repetition on a fresh System; `spans` (may be null) records the
/// benchmark's spans around each call.
Rep RunRep(const SimWorkload& w, double span_slots, std::uint64_t seed,
           bool telemetry, bdisk::obs::PhaseProfiler* profiler,
           SpanRecorder* spans) {
  namespace core = bdisk::core;
  namespace obs = bdisk::obs;
  core::SteadyStateProtocol protocol;
  protocol.min_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_sim_time = span_slots;

  Rep rep;
  rep.seed = seed;
  const std::unique_ptr<Rig> rig = SetUp(w, seed, telemetry, profiler);
  core::System* system = rig->system.get();
  const Clock::time_point t0 = rig->start;
  const Clock::time_point t1 = rig->artifacts;
  const Clock::time_point t2 = rig->built;
  const Clock::time_point t3 = rig->attached;
  const core::RunResult r = system->RunSteadyState(protocol);
  const Clock::time_point t4 = Clock::now();
  const std::optional<obs::TelemetryBus>& bus = rig->bus;

  if (spans != nullptr) {
    const std::uint64_t parent = spans->NextId();
    spans->Add("core.BuildArtifacts", t0, t1, parent);
    spans->Add("core.System", t1, t2, parent);
    spans->Add("core.System.Attach", t2, t3, parent);
    spans->Add("core.System.RunSteadyState", t3, t4, parent);
    spans->Add("rep", t0, t4, 0, 0, -1, parent);
  }

  rep.setup_s = Seconds(t0, t3);
  rep.run_s = Seconds(t3, t4);
  rep.slots = static_cast<double>(system->server().TotalSlots());
  rep.slots_per_s = Ratio(rep.slots, rep.run_s);
  rep.digest = SimDigest(r);
  rep.problems = CheckSimInvariants(r);

  // A short repetition may end before the measured client starts
  // recording; the pinned repetition is checked for enough samples.
  rep.rtt_samples = r.response_stats.Count();
  const obs::LatencyHistogram& hist = system->mc().response_histogram();
  rep.rtt_p50_slots = hist.Percentile(SupportedQuantile(rep.rtt_samples, 0.50));
  rep.rtt_p99_slots = hist.Percentile(SupportedQuantile(rep.rtt_samples, 0.99));

  std::map<std::string, double>& m = rep.layer;
  m["core.build_artifacts_s"] = Seconds(t0, t1);
  m["core.system_ctor_s"] = Seconds(t1, t2);
  const core::KernelProfile& k = r.kernel;
  m["sim.events_per_slot"] =
      Ratio(static_cast<double>(k.events_executed), rep.slots);
  m["sim.slots_per_span"] =
      Ratio(rep.slots, static_cast<double>(k.periodic_spans));
  m["sim.heap_high_water"] = static_cast<double>(k.heap_high_water);
  m["sim.arrivals_per_drain"] =
      Ratio(static_cast<double>(k.lazy_arrivals_fused),
            static_cast<double>(k.lazy_drains));
  m["client.vc_arrivals_per_slot"] =
      Ratio(static_cast<double>(r.vc_requests_generated), rep.slots);
  m["client.vc_submit_ratio"] =
      Ratio(static_cast<double>(r.vc_submitted),
            static_cast<double>(r.vc_requests_generated));
  m["client.mc_hit_rate"] = r.mc_hit_rate;
  const double submitted = static_cast<double>(r.requests_submitted);
  m["server.queue_accept_ratio"] =
      Ratio(static_cast<double>(r.requests_accepted), submitted);
  m["server.queue_coalesce_ratio"] =
      Ratio(static_cast<double>(r.requests_coalesced), submitted);
  m["server.queue_drop_ratio"] =
      Ratio(static_cast<double>(r.requests_dropped), submitted);
  m["server.pull_slot_frac"] = r.pull_slot_frac;
  if (bus) {
    m["obs.frames_per_kslot"] =
        Ratio(static_cast<double>(bus->FramesEmitted()), rep.slots / 1000.0);
    m["obs.frames_dropped"] = static_cast<double>(bus->FramesDropped());
  }
  if (profiler != nullptr) {
    profiler->Finalize();
    m["prof.kernel.span.self_ns_per_slot"] =
        Ratio(profiler->EstSelfNs(Phase::kKernelSpan), rep.slots);
    m["prof.kernel.drain.self_ns_per_op"] =
        Ratio(profiler->EstSelfNs(Phase::kDrain),
              static_cast<double>(profiler->Ops(Phase::kDrain)));
    m["prof.queue.pop.ns_per_op"] = profiler->NsPerOp(Phase::kQueuePop);
    m["prof.queue.schedule.ns_per_op"] =
        profiler->NsPerOp(Phase::kQueueSchedule);
    m["prof.vc.arrival.ns_per_op"] = profiler->NsPerOp(Phase::kVcArrival);
    m["prof.mc.delivery.ns_per_op"] = profiler->NsPerOp(Phase::kMcDelivery);
    m["prof.mc.request.ns_per_op"] = profiler->NsPerOp(Phase::kMcRequest);
    m["prof.server.queue.ns_per_op"] =
        profiler->NsPerOp(Phase::kServerQueue);
    m["prof.server.mux.ns_per_op"] = profiler->NsPerOp(Phase::kServerMux);
    m["prof.server.slot.self_ns_per_slot"] =
        Ratio(profiler->EstSelfNs(Phase::kServerSlot), rep.slots);
  }
  return rep;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One per-layer value of every rep in `reps` (reps lacking it skipped).
std::vector<double> LayerValues(const std::vector<Rep>& reps,
                                const std::string& name) {
  std::vector<double> v;
  for (const Rep& rep : reps) {
    const auto it = rep.layer.find(name);
    if (it != rep.layer.end()) v.push_back(it->second);
  }
  return v;
}

std::vector<double> Field(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> v;
  for (const Rep& rep : reps) v.push_back(rep.*field);
  return v;
}

}  // namespace

Outcome RunSimWorkload(const Options& options) {
  Outcome out;
  const SimWorkload* found = nullptr;
  for (const SimWorkload& w : kSimWorkloads) {
    if (options.workload == w.name) found = &w;
  }
  const SimWorkload& w = *found;

  // Every repetition is an operation; one that breaks an invariant fails
  // and is printed.
  const auto gate = [&out](const Rep& rep, const char* kind) {
    ++out.attempted;
    if (rep.problems.empty()) return;
    ++out.failed;
    out.Note(std::string(kind) + " repetition at seed " +
             std::to_string(rep.seed) + " failed its gate");
    for (const std::string& p : rep.problems) out.Fail(p);
  };

  // The pinned-seed repetition checks the trajectory against the pinned
  // digest, gives the measured client's response percentiles, and warms
  // caches and the allocator before anything is timed.
  const Rep pin = RunRep(w, w.pin_span_slots, options.default_seed,
                         w.telemetry, nullptr, nullptr);
  gate(pin, "pinned");
  if (options.default_seed != kPinnedSeed) {
    out.Fail("no digest pinned for default seed " +
             std::to_string(options.default_seed) + " (pinned seed is " +
             std::to_string(kPinnedSeed) + ")");
  } else if (pin.digest != w.pinned_digest) {
    ++out.failed;
    out.Fail(std::string(w.name) + " digest " + Hex(pin.digest) +
             " at seed " + std::to_string(kPinnedSeed) +
             " differs from the pinned " + Hex(w.pinned_digest));
  } else {
    out.Note("pinned digest " + Hex(pin.digest) + " at seed " +
             std::to_string(kPinnedSeed) + ": match");
  }
  if (SupportedQuantile(pin.rtt_samples, 0.99) < 0.99) {
    out.Fail("only " + std::to_string(pin.rtt_samples) +
             " measured accesses in the pinned repetition: too few for a "
             "p99");
  }

  // Repetition kinds, cycled on one seed each so they compare the same
  // trajectory. The traced run adds a profiled twin (and, with telemetry,
  // a bare twin without the observer tier).
  enum Kind { kMeasured, kBare, kTraced };
  std::vector<Kind> cycle = {kMeasured};
  if (options.trace) {
    if (w.telemetry) cycle.push_back(kBare);
    cycle.push_back(kTraced);
  }
  SpanRecorder spans(1, "main", std::size_t{1} << 16);
  std::unique_ptr<bdisk::obs::PhaseProfiler> last_profiler;
  std::vector<Rep> measured, bare, traced;
  // Room for one repetition per host millisecond, reserved but untouched
  // until written: growing by reallocation would copy the vector, and the
  // copy's peak would make peak_rss_mb depend on the repetition count.
  measured.reserve(static_cast<std::size_t>(options.seconds * 1000.0));
  bdisk::sim::Rng seeds(options.seed);
  const Clock::time_point epoch = Clock::now();
  const Clock::time_point deadline =
      epoch + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  while (measured.size() < 100 || Clock::now() < deadline) {
    const std::uint64_t seed = seeds.Next();
    for (const Kind kind : cycle) {
      if (kind == kMeasured) {
        measured.push_back(
            RunRep(w, w.span_slots, seed, w.telemetry, nullptr, nullptr));
        gate(measured.back(), "measured");
        // Only the traced run reports per-layer values. Dropping them keeps
        // the resident set from growing with the repetition count.
        if (!options.trace) measured.back().layer.clear();
      } else if (kind == kBare) {
        bare.push_back(RunRep(w, w.span_slots, seed, false, nullptr, nullptr));
        gate(bare.back(), "bare");
      } else {
        auto profiler = std::make_unique<bdisk::obs::PhaseProfiler>();
        traced.push_back(RunRep(w, w.span_slots, seed, w.telemetry,
                                profiler.get(), &spans));
        gate(traced.back(), "traced");
        last_profiler = std::move(profiler);
      }
    }
    // Observers never change the trajectory: every twin of a cycle must
    // reproduce the measured repetition's digest.
    for (const std::vector<Rep>* twins : {&bare, &traced}) {
      if (!twins->empty() && twins->back().seed == seed &&
          twins->back().digest != measured.back().digest) {
        ++out.failed;
        out.Fail("observer twin changed the trajectory at seed " +
                 std::to_string(seed));
      }
    }
  }

  const std::vector<double> rates = Field(measured, &Rep::slots_per_s);
  const double slots_per_s = FastRate(rates, kFastQuantile);
  const double us_per_slot = Ratio(1e6, slots_per_s);
  out.values["setup_s"] =
      FastTime(Field(measured, &Rep::setup_s), kFastQuantile);
  out.values["peak_rss_mb"] = PeakRssMiB();
  out.values["sim_slots_per_s"] = slots_per_s;
  // One thread runs kernel, server and clients with no wire, so its busy
  // time is the whole run: capacity is the simulated slot rate.
  out.values["serve_capacity_slots_per_s"] = slots_per_s;
  // The pinned repetition's response percentiles, in slots, in host time
  // at the reported slot rate.
  out.values["pull_rtt_p50_us"] = pin.rtt_p50_slots * us_per_slot;
  out.values["pull_rtt_p99_us"] = pin.rtt_p99_slots * us_per_slot;
  char line[200];
  std::snprintf(line, sizeof(line),
                "repetitions: %zu measured, %.3g slots each; slots/s "
                "median %.6g, fastest %.6g (reported)",
                measured.size(), w.span_slots, Median(rates), slots_per_s);
  out.Note(line);
  std::snprintf(line, sizeof(line),
                "pinned repetition: %.3g slots, response p50 %.4g / p99 "
                "%.4g slots over %zu measured accesses",
                w.pin_span_slots, pin.rtt_p50_slots, pin.rtt_p99_slots,
                pin.rtt_samples);
  out.Note(line);

  if (options.trace) {
    // Counts are medians over the measured repetitions, prof.* over the
    // traced ones; a layer this workload never enters reports 0.
    for (const MetricSpec& spec : PerLayerMetrics()) {
      const std::string name = spec.name;
      out.values[name] = Median(
          LayerValues(name.rfind("prof.", 0) == 0 ? traced : measured, name));
    }
    for (const char* name : {"core.build_artifacts_s", "core.system_ctor_s"}) {
      out.values[name] = FastTime(LayerValues(measured, name), kFastQuantile);
    }
    out.values["client.rtt_samples"] = static_cast<double>(pin.rtt_samples);
    const double traced_rate =
        FastRate(Field(traced, &Rep::slots_per_s), kFastQuantile);
    out.values["trace.overhead_frac"] = 1.0 - Ratio(traced_rate, slots_per_s);
    if (w.telemetry) {
      out.values["obs.overhead_frac"] =
          1.0 - Ratio(slots_per_s, FastRate(Field(bare, &Rep::slots_per_s),
                                            kFastQuantile));
    }
    std::snprintf(line, sizeof(line),
                  "tracing overhead: %.4f (traced %.0f vs untraced %.0f "
                  "slots/s)",
                  out.values["trace.overhead_frac"], traced_rate,
                  slots_per_s);
    out.Note(line);
    if (!options.trace_dir.empty()) {
      const std::string base = options.trace_dir + "/" + w.name;
      if (!WriteChromeTrace(base + ".spans.json", epoch, {&spans}) ||
          (last_profiler != nullptr &&
           !WriteFile(base + ".prof.json",
                      last_profiler->ToChromeTrace(nullptr)))) {
        out.Fail("cannot write trace files under " + options.trace_dir);
      } else {
        out.Note("trace: " + base + ".spans.json, " + base + ".prof.json");
      }
    }
  }
  return out;
}

bool IsSimWorkload(const std::string& name) {
  for (const SimWorkload& w : kSimWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

}  // namespace perfbench
