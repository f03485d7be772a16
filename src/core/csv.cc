#include "core/csv.h"

#include <cstdio>

namespace bdisk::core {

namespace {

// Quotes a field if it contains separators (labels may contain commas).
std::string Quote(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::string SweepCsv(const std::vector<SweepOutcome>& outcomes) {
  std::string out =
      "curve,x,mean_response,response_p50,response_p90,response_p95,"
      "response_p99,response_max,drop_rate,hit_rate,pulls_sent,"
      "requests_submitted,requests_dropped,push_frac,pull_frac,idle_frac,"
      "converged\n";
  char line[512];
  for (const SweepOutcome& outcome : outcomes) {
    const RunResult& r = outcome.result;
    std::snprintf(line, sizeof(line),
                  ",%g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%llu,%llu,"
                  "%llu,%.6g,%.6g,%.6g,%d\n",
                  outcome.point.x, r.mean_response, r.response_p50,
                  r.response_p90, r.response_p95, r.response_p99,
                  r.response_max, r.drop_rate, r.mc_hit_rate,
                  static_cast<unsigned long long>(r.mc_pulls_sent),
                  static_cast<unsigned long long>(r.requests_submitted),
                  static_cast<unsigned long long>(r.requests_dropped),
                  r.push_slot_frac, r.pull_slot_frac, r.idle_slot_frac,
                  r.converged ? 1 : 0);
    out += Quote(outcome.point.curve);
    out += line;
  }
  return out;
}

std::string WarmupCsv(const std::vector<SweepOutcome>& outcomes) {
  std::string out = "curve,x,fraction,time\n";
  char line[128];
  for (const SweepOutcome& outcome : outcomes) {
    for (const WarmupPoint& point : outcome.result.warmup) {
      if (point.time == sim::kTimeNever) continue;
      std::snprintf(line, sizeof(line), ",%g,%g,%.6g\n", outcome.point.x,
                    point.fraction, point.time);
      out += Quote(outcome.point.curve);
      out += line;
    }
  }
  return out;
}

}  // namespace bdisk::core
