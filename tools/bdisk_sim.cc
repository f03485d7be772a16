// bdisk_sim — command-line driver for the push/pull broadcast simulator.
//
// Run a single configuration or a ThinkTimeRatio sweep, from a config file
// and/or --set overrides, printing a table or CSV. Examples:
//
//   bdisk_sim                                   # Table 3 defaults, IPP
//   bdisk_sim --set mode=pull --set think_time_ratio=250
//   bdisk_sim --config my.conf --sweep 10,25,50,100,250 --csv
//   bdisk_sim --warmup --set mode=push
//   bdisk_sim --print-config                    # dump effective config
//   bdisk_sim --recommend                       # analytic advisor
//
// Config file syntax: `key = value` lines, `#` comments; the keys are the
// table in src/core/config_io.cc.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/advisor.h"
#include "cli_config.h"
#include "cli_numbers.h"
#include "core/config_io.h"
#include "core/csv.h"
#include "core/experiment.h"
#include "core/system.h"
#include "core/table_printer.h"
#include "obs/flight_recorder.h"
#include "obs/frame_sink.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/progress.h"
#include "obs/span_assembler.h"
#include "obs/telemetry_bus.h"
#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"
#include "write_output.h"

namespace {

void PrintUsage() {
  std::printf(
      "usage: bdisk_sim [options]\n"
      "  --config FILE      load key=value config file\n"
      "  --set KEY=VALUE    override one config key (repeatable)\n"
      "  --sweep T1,T2,...  run a ThinkTimeRatio sweep\n"
      "  --threads N        worker threads for sweeps (0 = all cores)\n"
      "  --warmup           measure warm-up trajectory instead of steady "
      "state\n"
      "  --csv              emit CSV instead of a table\n"
      "  --quick            short measurement protocol\n"
      "  --metrics-json F   write a metrics-registry snapshot (JSON) to F\n"
      "                     (\"-\" writes to stdout); a profiled run adds\n"
      "                     the per-phase wall-clock prof.* rows\n"
      "  --trace F          write a structured JSONL trace to F\n"
      "  --profile-folded F write folded stacks to F (flamegraph.pl input)\n"
      "  --chrome-trace F   write Chrome trace-event JSON to F (\"-\" for\n"
      "                     stdout): wall-clock phase slices plus sim-time\n"
      "                     request spans\n"
      "  --windows W        windowed telemetry with window width W (the\n"
      "                     \"window.*\" series in --metrics-json output)\n"
      "  --flight-recorder SPEC\n"
      "                     arm the anomaly flight recorder; SPEC is a\n"
      "                     comma list of drop_rate>X, p99>X, queue_depth>X\n"
      "                     (config-file keys: obs_window, flight_recorder)\n"
      "  --flight-recorder-max-dumps N\n"
      "                     dump budget: re-arm after each dump until N\n"
      "                     dumps are written (default 1 = one-shot)\n"
      "  --frames DEST      stream live bdisk-frame-v1 JSONL frames to DEST\n"
      "                     (\"-\" stdout, \"unix:PATH\" datagram socket —\n"
      "                     see tools/bdisk_top — else a file); implies\n"
      "                     windowed telemetry\n"
      "  --progress         periodic heartbeat on stderr (sim-time,\n"
      "                     events/s, done%%, ETA)\n"
      "  --print-config     print the effective configuration and exit\n"
      "  --recommend        run the analytic advisor for this config\n"
      "  --help             this message\n"
      "observability flags run a single point (no multi-point --sweep).\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdisk;

  core::SystemConfig config;
  std::vector<double> sweep;
  unsigned num_threads = 0;
  bool warmup = false;
  bool csv = false;
  bool quick = false;
  bool print_config = false;
  bool recommend = false;
  std::string metrics_json_path;
  std::string trace_path;
  std::string folded_path;
  std::string chrome_trace_path;
  bool progress = false;
  bool windows = false;

  // Each of these maps onto its config key, so the flag and the file share
  // one validator.
  const cli::ConfigAlias aliases[] = {
      {"--windows", "obs_window", &windows},
      {"--flight-recorder", "flight_recorder"},
      {"--flight-recorder-max-dumps", "flight_recorder_max_dumps"},
      {"--frames", "frames"},
  };
  for (int i = 1; i < argc; ++i) {
    if (cli::ConfigFlag(argc, argv, &i, aliases, &config)) continue;
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--sweep") {
      cli::DoubleListFlag("--sweep", next_value("--sweep"), 0.0, HUGE_VAL,
                          &sweep);
    } else if (arg == "--threads") {
      num_threads = static_cast<unsigned>(cli::UnsignedFlag(
          "--threads", next_value("--threads"), 0, UINT_MAX));
    } else if (arg == "--warmup") {
      warmup = true;
    } else if (arg == "--metrics-json") {
      metrics_json_path = next_value("--metrics-json");
    } else if (arg == "--trace") {
      trace_path = next_value("--trace");
    } else if (arg == "--profile-folded") {
      folded_path = next_value("--profile-folded");
    } else if (arg == "--chrome-trace") {
      chrome_trace_path = next_value("--chrome-trace");
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--print-config") {
      print_config = true;
    } else if (arg == "--recommend") {
      recommend = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  const std::string error = config.Validate();
  if (!error.empty()) {
    std::fprintf(stderr, "invalid configuration: %s\n", error.c_str());
    return 2;
  }

  if (print_config) {
    std::fputs(core::ConfigToText(config).c_str(), stdout);
    return 0;
  }

  if (recommend) {
    const std::vector<double> loads =
        sweep.empty() ? std::vector<double>{config.think_time_ratio} : sweep;
    const analysis::Recommendation rec =
        analysis::RecommendRobust(config, loads);
    std::printf("recommended: pull_bw=%.2f thres_perc=%.2f chop=%u "
                "(predicted response %.1f)\n",
                rec.pull_bw, rec.thres_perc, rec.chop,
                rec.predicted_response);
    return 0;
  }

  const core::SteadyStateProtocol steady =
      quick ? core::SteadyStateProtocol::Quick() : core::SteadyStateProtocol{};
  core::WarmupProtocol warm;

  std::vector<core::SweepPoint> points;
  if (sweep.empty()) sweep.push_back(config.think_time_ratio);
  for (const double ttr : sweep) {
    core::SweepPoint point;
    point.curve = core::DeliveryModeName(config.mode);
    point.x = ttr;
    point.config = config;
    point.config.think_time_ratio = ttr;
    const std::string point_error = point.config.Validate();
    if (!point_error.empty()) {
      std::fprintf(stderr, "--sweep %g: %s\n", ttr, point_error.c_str());
      return 2;
    }
    point.warmup_run = warmup;
    points.push_back(point);
  }

  const bool recorder_armed = !config.flight_recorder.empty();
  const bool frames_on = !config.frames.empty();
  const bool profiled = !folded_path.empty() || !chrome_trace_path.empty();
  const bool observed = !metrics_json_path.empty() || !trace_path.empty() ||
                        progress || windows || recorder_armed || profiled ||
                        frames_on;
  std::vector<core::SweepOutcome> outcomes;
  if (!observed) {
    try {
      outcomes = core::RunSweep(points, steady, warm, num_threads);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep failed: %s\n", e.what());
      return 1;
    }
  } else {
    // Observability wants one System it can attach to before the run, so
    // the observed path runs a single point inline instead of sweeping.
    if (points.size() != 1) {
      std::fprintf(stderr,
                   "--metrics-json/--trace/--progress need a "
                   "single-point run; drop --sweep or give it one value\n");
      return 2;
    }
    core::System system(points[0].config);
    obs::MetricsRegistry registry;
    obs::TraceSink sink;
    obs::PhaseProfiler profiler;
    if (!metrics_json_path.empty()) system.AttachMetrics(&registry);
    // The flight recorder's dump wants the trailing trace, so arming it
    // attaches the sink even without --trace (no file is written then).
    // The Chrome trace's sim-time track is assembled from the same sink.
    if (!trace_path.empty() || recorder_armed ||
        !chrome_trace_path.empty()) {
      system.AttachTrace(&sink);
    }
    if (profiled) system.AttachProfiler(&profiler);
    std::optional<obs::WindowedCollector> collector;
    std::optional<obs::FlightRecorder> recorder;
    std::optional<obs::TelemetryBus> bus;
    if (windows || recorder_armed || frames_on) {
      collector.emplace(points[0].config.obs_window);
      system.AttachWindowedCollector(&*collector);
    }
    if (recorder_armed) {
      obs::FlightTriggers triggers;
      const std::string trigger_error = obs::ParseFlightTriggerSpec(
          points[0].config.flight_recorder, &triggers);
      if (!trigger_error.empty()) {  // Config validation already caught this.
        std::fprintf(stderr, "flight_recorder: %s\n", trigger_error.c_str());
        return 2;
      }
      recorder.emplace(triggers, "bdisk-flight-",
                       points[0].config.flight_recorder_max_dumps);
      system.AttachFlightRecorder(&*recorder);
    }
    if (frames_on) {
      std::string sink_error;
      std::unique_ptr<obs::FrameSink> frame_sink =
          obs::MakeFrameSink(points[0].config.frames, &sink_error);
      if (frame_sink == nullptr) {
        std::fprintf(stderr, "--frames %s: %s\n",
                     points[0].config.frames.c_str(), sink_error.c_str());
        return 2;
      }
      bus.emplace(std::move(frame_sink));
      system.AttachTelemetryBus(&*bus);
    }
    std::optional<obs::ProgressReporter> reporter;
    if (progress) {
      reporter.emplace(&system.simulator(), /*interval=*/10000.0);
      if (warmup) {
        const double target = warm.target_fraction;
        reporter->SetFractionCallback([&system, target] {
          return std::min(1.0,
                          system.mc().warmup_tracker()->Fraction() / target);
        });
      } else {
        // Rough access budget: cache fill (~2x cache size on a skewed
        // pattern) + post-fill skip + the measurement cap. Runs that
        // converge early simply jump to done.
        const double approx_total = static_cast<double>(
            2ULL * points[0].config.cache_size + steady.post_fill_accesses +
            steady.max_measured_accesses);
        reporter->SetFractionCallback([&system, approx_total] {
          return std::min(
              1.0, static_cast<double>(system.mc().TotalAccesses()) /
                       approx_total);
        });
      }
      reporter->Start();
    }
    core::SweepOutcome outcome;
    outcome.point = points[0];
    outcome.result =
        warmup ? system.RunWarmup(warm) : system.RunSteadyState(steady);
    outcomes.push_back(outcome);
    if (!metrics_json_path.empty()) {
      system.SnapshotMetrics(&registry);
      if (!cli::WriteOutput(metrics_json_path, registry.ToJson())) return 1;
    }
    if (!trace_path.empty()) {
      if (!cli::WriteOutput(trace_path, sink.ToJsonl())) return 1;
    }
    if (!folded_path.empty()) {
      if (!cli::WriteOutput(folded_path, profiler.ToFolded())) return 1;
    }
    if (!chrome_trace_path.empty()) {
      obs::SpanAssembler assembler(sink.DroppedEvents() > 0);
      assembler.FeedAll(sink.Events());
      const std::vector<obs::RequestSpan> spans = assembler.Finish();
      if (!cli::WriteOutput(chrome_trace_path,
                            profiler.ToChromeTrace(&spans))) {
        return 1;
      }
    }
    if (recorder && recorder->FireCount() > 0) {
      if (!recorder->LastError().empty()) {
        std::fprintf(stderr, "flight recorder fired but dump failed: %s\n",
                     recorder->LastError().c_str());
      } else {
        std::fprintf(stderr,
                     "flight recorder fired %llu time(s), last: %s.json "
                     "and .jsonl\n",
                     static_cast<unsigned long long>(recorder->FireCount()),
                     recorder->DumpStem().c_str());
      }
    }
    if (bus && bus->FramesDropped() > 0) {
      std::fprintf(stderr,
                   "telemetry: %llu of %llu frames dropped (receiver too "
                   "slow; seq gaps carry the deltas forward)\n",
                   static_cast<unsigned long long>(bus->FramesDropped()),
                   static_cast<unsigned long long>(bus->FramesEmitted()));
    }
  }

  if (csv) {
    std::fputs(
        (warmup ? core::WarmupCsv(outcomes) : core::SweepCsv(outcomes)).c_str(),
        stdout);
    return 0;
  }

  if (warmup) {
    core::TablePrinter table({"TTR", "fraction", "time"});
    for (const auto& outcome : outcomes) {
      for (const auto& point : outcome.result.warmup) {
        table.AddRow({core::TablePrinter::Fmt(outcome.point.x, 0),
                      core::TablePrinter::Pct(point.fraction, 0),
                      point.time == sim::kTimeNever
                          ? "never"
                          : core::TablePrinter::Fmt(point.time, 0)});
      }
    }
    std::printf("%s", table.ToString().c_str());
  } else {
    core::TablePrinter table({"TTR", "response", "p50", "p95", "p99",
                              "hit rate", "drop rate", "push/pull/idle",
                              "converged"});
    for (const auto& outcome : outcomes) {
      const core::RunResult& r = outcome.result;
      table.AddRow(
          {core::TablePrinter::Fmt(outcome.point.x, 0),
           core::TablePrinter::Fmt(r.mean_response, 1),
           core::TablePrinter::Fmt(r.response_p50, 1),
           core::TablePrinter::Fmt(r.response_p95, 1),
           core::TablePrinter::Fmt(r.response_p99, 1),
           core::TablePrinter::Pct(r.mc_hit_rate),
           core::TablePrinter::Pct(r.drop_rate),
           core::TablePrinter::Pct(r.push_slot_frac, 0) + "/" +
               core::TablePrinter::Pct(r.pull_slot_frac, 0) + "/" +
               core::TablePrinter::Pct(r.idle_slot_frac, 0),
           r.converged ? "yes" : "no"});
    }
    std::printf("%s", table.ToString().c_str());
  }
  return 0;
}
