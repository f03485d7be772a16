// bdisk_chaos — fault-injection sweep harness for the bdisk::fault layer.
//
// Sweeps a list of loss rates (applied to both broadcast slots and
// backchannel requests), runs one deterministic simulation per point with
// the client/server robustness mechanisms engaged, and prints the
// response-time degradation curve. Examples:
//
//   bdisk_chaos                              # default sweep 0,2%,5%,10%,20%
//   bdisk_chaos --loss 0,0.1,0.3 --seed 7
//   bdisk_chaos --loss 0.1 --quick --csv
//   bdisk_chaos --set server_db_size=100 --set disk_sizes=10,40,50
//       --set cache_size=10 --set server_queue_size=10 --quick
//
// The harness is also a correctness gate (CI runs it as a smoke test):
// it exits nonzero unless, at every point,
//   - the run terminated by reaching its access quota (no hung requests:
//     the measured client resolved every access as a hit, a delivery, or
//     an explicit abandon — never by the simulation clock running out);
//   - the pull-queue accounting balances: submitted == accepted +
//     coalesced + dropped(capacity) + shed + dropped(outage);
//   - with loss > 0, the fault layer actually injected faults and the
//     fault.* accounting is self-consistent.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_config.h"
#include "cli_numbers.h"
#include "core/system.h"
#include "core/table_printer.h"
#include "obs/frame_sink.h"
#include "obs/telemetry_bus.h"
#include "obs/windowed_collector.h"

namespace {

void PrintUsage() {
  std::printf(
      "usage: bdisk_chaos [options]\n"
      "  --loss L1,L2,...   loss rates to sweep (default 0,0.02,0.05,\n"
      "                     0.1,0.2); each L is applied as both\n"
      "                     fault.slot_loss and fault.request_loss\n"
      "  --slot-only        apply loss to broadcast slots only\n"
      "  --request-only     apply loss to backchannel requests only\n"
      "  --outage-sweep     sweep timed server outage windows instead of\n"
      "                     loss: blackout and brownout crossed with every\n"
      "                     --outage-durations x --outage-periods point\n"
      "  --outage-durations D1,D2,...  window widths in broadcast units\n"
      "                     (default 50,200)\n"
      "  --outage-periods P1,P2,...    window spacings; 0 is a one-shot\n"
      "                     window (default 0,500)\n"
      "  --outage-start T   first window opens at sim time T (default 100)\n"
      "  --set KEY=VALUE    override one config key (repeatable)\n"
      "  --config FILE      load key=value config file\n"
      "  --seed N           root RNG seed\n"
      "  --quick            short measurement protocol\n"
      "  --csv              emit CSV instead of a table\n"
      "  --frames DEST      stream live bdisk-frame-v1 frames (\"-\" stdout,\n"
      "                     \"unix:PATH\" datagram, else file); needs a\n"
      "                     single --loss point — one stream is one run\n"
      "  --help             this message\n"
      "exits 1 when any point hangs, drops accounting, or fails to\n"
      "inject at a nonzero loss rate.\n");
}

struct PointOutcome {
  double loss = 0.0;
  bdisk::core::RunResult result;
  std::vector<std::string> violations;
};

struct OutagePoint {
  bool brownout = false;
  double duration = 0.0;
  double period = 0.0;
  bdisk::core::RunResult result;
  std::vector<std::string> violations;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bdisk;

  core::SystemConfig base;
  std::vector<double> losses;
  bool slot_loss = true;
  bool request_loss = true;
  bool outage_sweep = false;
  std::vector<double> outage_durations;
  std::vector<double> outage_periods;
  double outage_start = 100.0;
  bool quick = false;
  bool csv = false;

  const cli::ConfigAlias aliases[] = {{"--seed", "seed"},
                                      {"--frames", "frames"}};
  for (int i = 1; i < argc; ++i) {
    if (cli::ConfigFlag(argc, argv, &i, aliases, &base)) continue;
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--loss") {
      cli::DoubleListFlag("--loss", next_value("--loss"), 0.0, 1.0, &losses);
    } else if (arg == "--slot-only") {
      request_loss = false;
    } else if (arg == "--request-only") {
      slot_loss = false;
    } else if (arg == "--outage-sweep") {
      outage_sweep = true;
    } else if (arg == "--outage-durations") {
      cli::DoubleListFlag("--outage-durations",
                          next_value("--outage-durations"), 0.0, HUGE_VAL,
                          &outage_durations);
    } else if (arg == "--outage-periods") {
      cli::DoubleListFlag("--outage-periods", next_value("--outage-periods"),
                          0.0, HUGE_VAL, &outage_periods);
    } else if (arg == "--outage-start") {
      outage_start =
          cli::DoubleFlag("--outage-start", next_value("--outage-start"), 0.0);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--help") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (!slot_loss && !request_loss) {
    std::fprintf(stderr, "--slot-only and --request-only conflict\n");
    return 2;
  }
  if (outage_sweep) {
    if (!losses.empty()) {
      std::fprintf(stderr, "--outage-sweep and --loss conflict\n");
      return 2;
    }
    if (!base.frames.empty()) {
      std::fprintf(stderr, "--frames is not supported with --outage-sweep "
                           "(the grid is never a single run)\n");
      return 2;
    }
    if (outage_durations.empty()) outage_durations = {50.0, 200.0};
    if (outage_periods.empty()) outage_periods = {0.0, 500.0};
    for (const double d : outage_durations) {
      if (d <= 0.0) {
        std::fprintf(stderr, "outage duration %g must be > 0\n", d);
        return 2;
      }
    }
  } else if (!outage_durations.empty() || !outage_periods.empty()) {
    std::fprintf(stderr,
                 "--outage-durations/--outage-periods need --outage-sweep\n");
    return 2;
  }
  if (losses.empty()) losses = {0.0, 0.02, 0.05, 0.1, 0.2};
  if (!base.frames.empty() && losses.size() != 1) {
    std::fprintf(stderr,
                 "--frames needs a single --loss point (a frame stream "
                 "describes exactly one run)\n");
    return 2;
  }

  const core::SteadyStateProtocol protocol =
      quick ? core::SteadyStateProtocol::Quick() : core::SteadyStateProtocol{};

  if (outage_sweep) {
    // Blackout/brownout crossed with every duration x period point, each
    // run through the same violation gates as the loss sweep: no hung
    // requests, balanced queue accounting, and proof the fault layer
    // actually opened windows.
    std::vector<OutagePoint> points;
    for (const bool brownout : {false, true}) {
      for (const double duration : outage_durations) {
        for (const double period : outage_periods) {
          OutagePoint point;
          point.brownout = brownout;
          point.duration = duration;
          point.period = period;
          core::SystemConfig config = base;
          config.fault.outage_start = outage_start;
          config.fault.outage_duration = duration;
          config.fault.outage_period = period;
          config.fault.brownout = brownout;
          const std::string error = config.Validate();
          if (!error.empty()) {
            std::fprintf(stderr,
                         "%s dur=%g period=%g: invalid config: %s\n",
                         brownout ? "brownout" : "blackout", duration,
                         period, error.c_str());
            return 2;
          }
          core::System system(config);
          const core::RunResult r = system.RunSteadyState(protocol);
          point.result = r;
          if (r.sim_time_end >= protocol.max_sim_time) {
            point.violations.push_back(
                "hung: run hit the simulation-time cap");
          }
          const std::uint64_t accounted =
              r.requests_accepted + r.requests_coalesced +
              r.requests_dropped + r.requests_shed +
              r.requests_dropped_outage;
          if (accounted != r.requests_submitted) {
            point.violations.push_back(
                "queue accounting: submitted != accepted + coalesced + "
                "dropped + shed + outage");
          }
          if (r.outages_started == 0) {
            point.violations.push_back("no outage windows started");
          }
          if (r.mc_accesses == 0) {
            point.violations.push_back(
                "measured client completed no accesses");
          }
          points.push_back(std::move(point));
        }
      }
    }

    using core::TablePrinter;
    bool failed = false;
    if (csv) {
      std::printf(
          "mode,duration,period,mean_response,p99,outages,outage_slots,"
          "outage_dropped,timeouts,retries,abandoned,fallbacks,ok\n");
    }
    TablePrinter table({"Mode", "Dur", "Period", "Mean", "P99", "Outages",
                        "IdleSlots", "OutDrop", "Timeouts", "Retries",
                        "Abandoned", "OK"});
    for (const OutagePoint& p : points) {
      const core::RunResult& r = p.result;
      const bool ok = p.violations.empty();
      failed = failed || !ok;
      const char* mode = p.brownout ? "brownout" : "blackout";
      if (csv) {
        std::printf(
            "%s,%g,%g,%.2f,%.2f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%d\n",
            mode, p.duration, p.period, r.mean_response, r.response_p99,
            static_cast<unsigned long long>(r.outages_started),
            static_cast<unsigned long long>(r.outage_slots),
            static_cast<unsigned long long>(r.requests_dropped_outage),
            static_cast<unsigned long long>(r.mc_timeouts_fired),
            static_cast<unsigned long long>(r.mc_retries_sent),
            static_cast<unsigned long long>(r.mc_abandoned),
            static_cast<unsigned long long>(r.mc_fallbacks), ok ? 1 : 0);
      } else {
        table.AddRow({mode, TablePrinter::Fmt(p.duration),
                      TablePrinter::Fmt(p.period),
                      TablePrinter::Fmt(r.mean_response),
                      TablePrinter::Fmt(r.response_p99),
                      std::to_string(r.outages_started),
                      std::to_string(r.outage_slots),
                      std::to_string(r.requests_dropped_outage),
                      std::to_string(r.mc_timeouts_fired),
                      std::to_string(r.mc_retries_sent),
                      std::to_string(r.mc_abandoned), ok ? "yes" : "NO"});
      }
      for (const std::string& v : p.violations) {
        std::fprintf(stderr, "%s dur=%g period=%g: VIOLATION: %s\n", mode,
                     p.duration, p.period, v.c_str());
      }
    }
    if (!csv) std::fputs(table.ToString().c_str(), stdout);
    return failed ? 1 : 0;
  }

  std::vector<PointOutcome> outcomes;
  for (const double loss : losses) {
    PointOutcome point;
    point.loss = loss;
    core::SystemConfig config = base;
    if (slot_loss) config.fault.slot_loss = loss;
    if (request_loss) config.fault.request_loss = loss;
    const std::string error = config.Validate();
    if (!error.empty()) {
      std::fprintf(stderr, "loss=%g: invalid config: %s\n", loss,
                   error.c_str());
      return 2;
    }

    core::System system(config);
    std::optional<obs::WindowedCollector> collector;
    std::optional<obs::TelemetryBus> bus;
    if (!config.frames.empty()) {
      std::string sink_error;
      std::unique_ptr<obs::FrameSink> frame_sink =
          obs::MakeFrameSink(config.frames, &sink_error);
      if (frame_sink == nullptr) {
        std::fprintf(stderr, "--frames %s: %s\n", config.frames.c_str(),
                     sink_error.c_str());
        return 2;
      }
      collector.emplace(config.obs_window);
      system.AttachWindowedCollector(&*collector);
      bus.emplace(std::move(frame_sink));
      system.AttachTelemetryBus(&*bus);
    }
    const core::RunResult r = system.RunSteadyState(protocol);
    point.result = r;
    if (bus && bus->FramesDropped() > 0) {
      std::fprintf(stderr, "telemetry: %llu of %llu frames dropped\n",
                   static_cast<unsigned long long>(bus->FramesDropped()),
                   static_cast<unsigned long long>(bus->FramesEmitted()));
    }

    // No hung requests: the run must end because the measured client hit
    // its access quota (simulator_.Stop()), not because the clock ran out
    // with a request stuck waiting forever.
    if (r.sim_time_end >= protocol.max_sim_time) {
      point.violations.push_back("hung: run hit the simulation-time cap");
    }
    const std::uint64_t accounted = r.requests_accepted +
                                    r.requests_coalesced +
                                    r.requests_dropped + r.requests_shed +
                                    r.requests_dropped_outage;
    if (accounted != r.requests_submitted) {
      point.violations.push_back(
          "queue accounting: submitted != accepted + coalesced + dropped "
          "+ shed + outage");
    }
    if (loss > 0.0) {
      if (slot_loss && r.fault_slots_lost == 0) {
        point.violations.push_back("no broadcast slots lost at loss > 0");
      }
      if (request_loss && r.fault_requests_lost == 0 &&
          r.mc_pulls_sent + r.vc_submitted > 0) {
        point.violations.push_back("no requests lost at loss > 0");
      }
    }
    if (r.mc_accesses == 0) {
      point.violations.push_back("measured client completed no accesses");
    }
    outcomes.push_back(std::move(point));
  }

  using core::TablePrinter;
  bool failed = false;
  if (csv) {
    std::printf(
        "loss,mean_response,p99,drop_rate,slots_lost,requests_lost,"
        "timeouts,retries,abandoned,fallbacks,shed,outage_dropped,ok\n");
  }
  TablePrinter table({"Loss", "Mean", "P99", "Drop%", "SlotsLost",
                      "ReqLost", "Timeouts", "Retries", "Abandoned",
                      "Fallbacks", "Shed", "OK"});
  for (const PointOutcome& p : outcomes) {
    const core::RunResult& r = p.result;
    const bool ok = p.violations.empty();
    failed = failed || !ok;
    if (csv) {
      std::printf("%g,%.2f,%.2f,%.4f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                  "%llu,%d\n",
                  p.loss, r.mean_response, r.response_p99, r.drop_rate,
                  static_cast<unsigned long long>(r.fault_slots_lost),
                  static_cast<unsigned long long>(r.fault_requests_lost),
                  static_cast<unsigned long long>(r.mc_timeouts_fired),
                  static_cast<unsigned long long>(r.mc_retries_sent),
                  static_cast<unsigned long long>(r.mc_abandoned),
                  static_cast<unsigned long long>(r.mc_fallbacks),
                  static_cast<unsigned long long>(r.requests_shed),
                  static_cast<unsigned long long>(r.requests_dropped_outage),
                  ok ? 1 : 0);
    } else {
      table.AddRow({TablePrinter::Pct(p.loss), TablePrinter::Fmt(r.mean_response),
                    TablePrinter::Fmt(r.response_p99),
                    TablePrinter::Pct(r.drop_rate),
                    std::to_string(r.fault_slots_lost),
                    std::to_string(r.fault_requests_lost),
                    std::to_string(r.mc_timeouts_fired),
                    std::to_string(r.mc_retries_sent),
                    std::to_string(r.mc_abandoned),
                    std::to_string(r.mc_fallbacks),
                    std::to_string(r.requests_shed), ok ? "yes" : "NO"});
    }
    for (const std::string& v : p.violations) {
      std::fprintf(stderr, "loss=%g: VIOLATION: %s\n", p.loss, v.c_str());
    }
  }
  if (!csv) std::fputs(table.ToString().c_str(), stdout);
  return failed ? 1 : 0;
}
