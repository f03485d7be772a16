// bdisk_compare — diff two bdisk-metrics-v1 JSON snapshots.
//
// Flattens both registries (counters, gauges, stats, histograms, and
// time-series lengths) into name -> value maps and compares them with
// percent deltas. Intended as a CI regression gate: identical snapshots
// exit 0, any metric moving beyond --tolerance (or appearing/disappearing)
// exits 1, usage or parse problems exit 2.
//
//   bdisk_compare baseline.json fresh.json
//   bdisk_compare baseline.json fresh.json --tolerance 2.5 --all
//
// Wall-clock metrics — the whole `prof.*` family and `kernel.wall_seconds`
// (obs::kNondeterministicMetricSubstrings) — are ignored by default: they
// measure the host, not the simulation. --ignore adds further substrings;
// --include-nondeterministic compares them anyway.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli_numbers.h"
#include "obs/json.h"
#include "obs/phase_profiler.h"

namespace {

using bdisk::obs::JsonValue;

void PrintUsage() {
  std::printf(
      "usage: bdisk_compare BASELINE.json CURRENT.json [options]\n"
      "  --tolerance PCT  allowed per-metric delta in percent (default 0)\n"
      "  --ignore SUBSTR  skip metrics whose name contains SUBSTR\n"
      "                   (repeatable)\n"
      "  --include-nondeterministic\n"
      "                   compare wall-clock metrics too (prof.*,\n"
      "                   kernel.wall_seconds); skipped by default because\n"
      "                   they measure the host, not the simulation\n"
      "  --all            print unchanged metrics too\n"
      "exit: 0 within tolerance, 1 regression, 2 usage/parse error\n");
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

// Flattened scalar view of one snapshot: "counters.server.slots_total",
// "histograms.client.mc.response.p99", "time_series.window.drop_rate.len".
using MetricMap = std::map<std::string, double>;

void FlattenScalarSection(const JsonValue& root, const char* section,
                          MetricMap* out) {
  const JsonValue* sec = root.Find(section);
  if (sec == nullptr || sec->kind != JsonValue::Kind::kObject) return;
  for (const auto& [name, value] : sec->object) {
    if (value.kind == JsonValue::Kind::kNumber) {
      (*out)[std::string(section) + "." + name] = value.number;
    } else if (value.kind == JsonValue::Kind::kObject) {
      // stats/histograms: an object of scalar fields (plus nested arrays
      // like histogram buckets, which the scalar count/percentile fields
      // already summarize — skip them).
      for (const auto& [field, leaf] : value.object) {
        if (leaf.kind == JsonValue::Kind::kNumber) {
          (*out)[std::string(section) + "." + name + "." + field] =
              leaf.number;
        }
      }
    }
  }
}

void FlattenTimeSeries(const JsonValue& root, MetricMap* out) {
  const JsonValue* sec = root.Find("time_series");
  if (sec == nullptr || sec->kind != JsonValue::Kind::kObject) return;
  // Whole series are too volatile to diff pointwise (sample counts shift
  // with run length); their lengths catch wiring regressions cheaply.
  for (const auto& [name, value] : sec->object) {
    if (value.kind == JsonValue::Kind::kArray) {
      (*out)["time_series." + name + ".len"] =
          static_cast<double>(value.array.size());
    }
  }
}

bool LoadSnapshot(const std::string& path, MetricMap* out,
                  std::string* why) {
  std::string text;
  if (!ReadFile(path, &text)) {
    *why = "cannot open " + path;
    return false;
  }
  JsonValue root;
  std::string parse_error;
  if (!bdisk::obs::ParseJson(text, &root, &parse_error)) {
    *why = path + ": " + parse_error;
    return false;
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->string != "bdisk-metrics-v1") {
    *why = path + ": not a bdisk-metrics-v1 snapshot";
    return false;
  }
  FlattenScalarSection(root, "counters", out);
  FlattenScalarSection(root, "gauges", out);
  FlattenScalarSection(root, "stats", out);
  FlattenScalarSection(root, "histograms", out);
  FlattenTimeSeries(root, out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double tolerance = 0.0;
  // One shared list of host-measuring metric families, defined next to the
  // profiler that produces most of them.
  std::vector<std::string> ignore(
      std::begin(bdisk::obs::kNondeterministicMetricSubstrings),
      std::end(bdisk::obs::kNondeterministicMetricSubstrings));
  bool print_all = false;

  for (int i = 1; i < argc; ++i) {
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
    } else if (arg == "--tolerance") {
      tolerance = bdisk::cli::DoubleFlag("--tolerance",
                                         next_value("--tolerance"), 0.0);
    } else if (arg == "--ignore") {
      ignore.emplace_back(next_value("--ignore"));
    } else if (arg == "--include-nondeterministic") {
      for (const char* needle :
           bdisk::obs::kNondeterministicMetricSubstrings) {
        ignore.erase(std::remove(ignore.begin(), ignore.end(), needle),
                     ignore.end());
      }
    } else if (arg == "--all") {
      print_all = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      std::fprintf(stderr, "too many positional arguments\n");
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    PrintUsage();
    return 2;
  }

  MetricMap baseline, current;
  std::string why;
  if (!LoadSnapshot(baseline_path, &baseline, &why) ||
      !LoadSnapshot(current_path, &current, &why)) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }

  const auto ignored = [&ignore](const std::string& name) {
    for (const std::string& needle : ignore) {
      if (name.find(needle) != std::string::npos) return true;
    }
    return false;
  };

  // One row per metric, baseline order first, then the metrics only the
  // current snapshot has. A metric present on one side only is a
  // regression; so is a delta beyond the tolerance, or any change from 0.
  std::printf("  %-48s %16s %16s %11s\n", "metric", "baseline", "current",
              "delta");
  std::size_t compared = 0, changed = 0, regressions = 0;
  for (const auto& [name, old_v] : baseline) {
    if (ignored(name)) continue;
    const auto it = current.find(name);
    if (it == current.end()) {
      ++regressions;
      std::printf("! %-48s %16.6g %16s %11s\n", name.c_str(), old_v,
                  "(missing)", "");
      continue;
    }
    ++compared;
    const double new_v = it->second;
    double delta_pct = 0.0;
    if (new_v != old_v) {
      delta_pct = old_v != 0.0 ? 100.0 * (new_v - old_v) / std::fabs(old_v)
                               : std::numeric_limits<double>::infinity();
    }
    const bool regressed =
        std::fabs(delta_pct) > tolerance || !std::isfinite(delta_pct);
    if (delta_pct != 0.0) ++changed;
    if (regressed) ++regressions;
    if (print_all || delta_pct != 0.0 || regressed) {
      std::printf("%c %-48s %16.6g %16.6g %+10.3f%%\n",
                  regressed ? '!' : (delta_pct != 0.0 ? '~' : ' '),
                  name.c_str(), old_v, new_v, delta_pct);
    }
  }
  for (const auto& [name, new_v] : current) {
    if (ignored(name) || baseline.count(name) > 0) continue;
    ++regressions;
    std::printf("! %-48s %16s %16.6g %11s\n", name.c_str(), "(missing)",
                new_v, "");
  }
  std::printf("compared %zu metrics: %zu changed, %zu beyond %.3g%% "
              "tolerance\n",
              compared, changed, regressions, tolerance);

  return regressions > 0 ? 1 : 0;
}
