// bdisk_prof — aggregate and diff bdisk-prof-v1 wall-clock profiles.
//
// A profile comes from `bdisk_sim --profile F` (or PhaseProfiler::
// ToProfJson() directly). Two subcommands:
//
//   bdisk_prof report PROFILE.json [--top N]
//       Per-phase attribution table, sorted by total time: calls, work
//       items, estimated total/self nanoseconds, and ns per work item.
//
//   bdisk_prof diff BASELINE.json CURRENT.json [--tolerance PCT]
//                                              [--floor-ns NS]
//       Percent-delta comparison in the style of bdisk_compare, with two
//       concessions to wall-clock noise: deltas within --tolerance pass
//       (default 25%), and phases whose total_ns stays under --floor-ns
//       in both profiles (default 50000) are reported but never gate.
//
// exit: 0 ok / within tolerance, 1 regression, 2 usage or parse error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_numbers.h"
#include "obs/json.h"

namespace {

using bdisk::obs::JsonValue;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

void PrintUsage() {
  std::printf(
      "usage: bdisk_prof report PROFILE.json [--top N]\n"
      "       bdisk_prof diff BASELINE.json CURRENT.json\n"
      "                  [--tolerance PCT] [--floor-ns NS]\n"
      "  report: per-phase wall-clock attribution, sorted by total time\n"
      "  diff:   percent deltas per phase; deltas within --tolerance\n"
      "          (default 25%%) pass, and phases under --floor-ns\n"
      "          (default 50000) in both profiles never gate\n"
      "exit: 0 ok, 1 regression, 2 usage/parse error\n");
}

struct PhaseRow {
  std::string name;
  double calls = 0.0;
  double ops = 0.0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double ns_per_op = 0.0;
};

struct Profile {
  std::string clock;
  std::vector<PhaseRow> phases;  // File order; report sorts a copy.
};

double NumberField(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : 0.0;
}

bool LoadProfile(const std::string& path, Profile* out, std::string* why) {
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
      schema->string != "bdisk-prof-v1") {
    *why = path + ": not a bdisk-prof-v1 profile";
    return false;
  }
  const JsonValue* clock = root.Find("clock");
  if (clock != nullptr && clock->kind == JsonValue::Kind::kString) {
    out->clock = clock->string;
  }
  const JsonValue* phases = root.Find("phases");
  if (phases == nullptr || phases->kind != JsonValue::Kind::kObject) {
    *why = path + ": profile has no phases section";
    return false;
  }
  for (const auto& [name, value] : phases->object) {
    if (value.kind != JsonValue::Kind::kObject) continue;
    PhaseRow row;
    row.name = name;
    row.calls = NumberField(value, "calls");
    row.ops = NumberField(value, "ops");
    row.total_ns = NumberField(value, "total_ns");
    row.self_ns = NumberField(value, "self_ns");
    row.ns_per_op = NumberField(value, "ns_per_op");
    out->phases.push_back(std::move(row));
  }
  return true;
}

const PhaseRow* FindPhase(const Profile& profile, const std::string& name) {
  for (const PhaseRow& row : profile.phases) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

int RunReport(const std::string& path, std::size_t top) {
  Profile profile;
  std::string why;
  if (!LoadProfile(path, &profile, &why)) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }
  std::vector<PhaseRow> rows = profile.phases;
  std::sort(rows.begin(), rows.end(),
            [](const PhaseRow& a, const PhaseRow& b) {
              return a.total_ns > b.total_ns;
            });
  double run_total = 0.0;
  if (const PhaseRow* run = FindPhase(profile, "run")) {
    run_total = run->total_ns;
  }
  std::printf("profile %s (clock %s)\n", path.c_str(),
              profile.clock.c_str());
  std::printf("%-16s %12s %12s %12s %12s %10s %7s\n", "phase", "calls",
              "ops", "total_ms", "self_ms", "ns/op", "%run");
  std::size_t printed = 0;
  for (const PhaseRow& row : rows) {
    if (top != 0 && printed >= top) break;
    ++printed;
    std::printf("%-16s %12.0f %12.0f %12.3f %12.3f %10.1f %6.1f%%\n",
                row.name.c_str(), row.calls, row.ops, row.total_ns / 1e6,
                row.self_ns / 1e6, row.ns_per_op,
                run_total > 0.0 ? 100.0 * row.total_ns / run_total : 0.0);
  }
  return 0;
}

int RunDiff(const std::string& baseline_path,
            const std::string& current_path, double tolerance,
            double floor_ns) {
  Profile baseline, current;
  std::string why;
  if (!LoadProfile(baseline_path, &baseline, &why) ||
      !LoadProfile(current_path, &current, &why)) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }

  std::size_t compared = 0, regressions = 0;
  std::printf("%-16s %14s %14s %11s  %s\n", "phase", "baseline", "current",
              "delta", "field");
  const auto compare = [&](const std::string& name, const char* field,
                           double old_v, double new_v, bool gates) {
    ++compared;
    double delta_pct = 0.0;
    if (new_v != old_v) {
      delta_pct = old_v != 0.0 ? 100.0 * (new_v - old_v) / std::fabs(old_v)
                               : (new_v != 0.0 ? INFINITY : 0.0);
    }
    const bool regressed =
        gates &&
        (std::fabs(delta_pct) > tolerance || !std::isfinite(delta_pct));
    if (regressed) ++regressions;
    if (delta_pct != 0.0 || regressed) {
      std::printf("%c %-14s %14.6g %14.6g %+10.3f%%  %s%s\n",
                  regressed ? '!' : '~', name.c_str(), old_v, new_v,
                  delta_pct, field, gates ? "" : " (under floor)");
    }
  };

  for (const PhaseRow& old_row : baseline.phases) {
    const PhaseRow* new_row = FindPhase(current, old_row.name);
    // A phase entirely under the floor on both sides is timing noise (or
    // a feature that never ran); report it but never fail on it.
    const double new_total = new_row != nullptr ? new_row->total_ns : 0.0;
    const bool gates =
        old_row.total_ns >= floor_ns || new_total >= floor_ns;
    if (new_row == nullptr) {
      if (gates) {
        ++regressions;
        std::printf("! %-14s %14.6g %14s %11s  total_ns\n",
                    old_row.name.c_str(), old_row.total_ns, "(missing)",
                    "");
      }
      continue;
    }
    compare(old_row.name, "total_ns", old_row.total_ns, new_row->total_ns,
            gates);
    compare(old_row.name, "ns_per_op", old_row.ns_per_op,
            new_row->ns_per_op, gates);
  }
  for (const PhaseRow& new_row : current.phases) {
    if (FindPhase(baseline, new_row.name) != nullptr) continue;
    if (new_row.total_ns < floor_ns) continue;
    ++regressions;
    std::printf("! %-14s %14s %14.6g %11s  total_ns\n",
                new_row.name.c_str(), "(missing)", new_row.total_ns, "");
  }

  std::printf("compared %zu fields: %zu beyond %.3g%% tolerance "
              "(floor %.3g ns)\n",
              compared, regressions, tolerance, floor_ns);
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::vector<std::string> paths;
  double tolerance = 25.0;
  double floor_ns = 50000.0;
  std::size_t top = 0;

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
    } else if (arg == "--floor-ns") {
      floor_ns =
          bdisk::cli::DoubleFlag("--floor-ns", next_value("--floor-ns"), 0.0);
    } else if (arg == "--top") {
      top = static_cast<std::size_t>(
          bdisk::cli::UnsignedFlag("--top", next_value("--top"), 0, SIZE_MAX));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else if (command.empty()) {
      command = arg;
    } else {
      paths.push_back(arg);
    }
  }

  if (command == "report" && paths.size() == 1) {
    return RunReport(paths[0], top);
  }
  if (command == "diff" && paths.size() == 2) {
    return RunDiff(paths[0], paths[1], tolerance, floor_ns);
  }
  PrintUsage();
  return 2;
}
