#include "core/config_io.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"

namespace bdisk::core {

namespace {

std::string Trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// Numbers fail closed: the whole value must be one finite double, or one
// unsigned decimal integer that fits the field (no sign, no wraparound),
// and nothing is written unless it is.
bool ParseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

// T is std::uint32_t or std::uint64_t; from_chars refuses a sign and
// reports values past T's range.
template <typename T>
bool ParseUnsigned(const std::string& value, T* out) {
  T parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  *out = parsed;
  return true;
}

bool ParseBool(const std::string& value, bool* out) {
  if (value == "true" || value == "1" || value == "yes") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "0" || value == "no") {
    *out = false;
    return true;
  }
  return false;
}

bool ParseU32List(const std::string& value, std::vector<std::uint32_t>* out) {
  std::vector<std::uint32_t> list;
  std::stringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    std::uint32_t parsed = 0;
    if (!ParseUnsigned(Trim(item), &parsed)) return false;
    list.push_back(parsed);
  }
  if (list.empty()) return false;
  *out = std::move(list);
  return true;
}

}  // namespace

std::string ApplyConfigOption(const std::string& raw_key,
                              const std::string& raw_value,
                              SystemConfig* config) {
  const std::string key = Trim(raw_key);
  const std::string value = Trim(raw_value);
  const auto bad_value = [&] { return "invalid value for " + key; };

  if (key == "mode") {
    if (value == "push") {
      config->mode = DeliveryMode::kPurePush;
    } else if (value == "pull") {
      config->mode = DeliveryMode::kPurePull;
    } else if (value == "ipp") {
      config->mode = DeliveryMode::kIpp;
    } else {
      return "mode must be push, pull, or ipp";
    }
    return "";
  }
  if (key == "chunking") {
    if (value == "balanced") {
      config->chunking = broadcast::ChunkingMode::kBalanced;
    } else if (value == "pad") {
      config->chunking = broadcast::ChunkingMode::kPad;
    } else {
      return "chunking must be balanced or pad";
    }
    return "";
  }
  if (key == "mc_policy") {
    if (value == "pix") {
      config->mc_policy = cache::PolicyKind::kPix;
    } else if (value == "p") {
      config->mc_policy = cache::PolicyKind::kP;
    } else if (value == "lru") {
      config->mc_policy = cache::PolicyKind::kLru;
    } else if (value == "lfu") {
      config->mc_policy = cache::PolicyKind::kLfu;
    } else if (value == "default") {
      config->mc_policy.reset();
    } else {
      return "mc_policy must be pix, p, lru, lfu, or default";
    }
    return "";
  }
  if (key == "disk_sizes") {
    return ParseU32List(value, &config->disks.sizes) ? "" : bad_value();
  }
  if (key == "disk_freqs") {
    return ParseU32List(value, &config->disks.rel_freqs) ? "" : bad_value();
  }
  if (key == "offset") {
    std::uint32_t parsed = 0;
    if (value == "cache_size") {
      config->offset.reset();
      return "";
    }
    if (!ParseUnsigned(value, &parsed)) return bad_value();
    config->offset = parsed;
    return "";
  }
  if (key == "update_zipf_theta") {
    double parsed = 0;
    if (!ParseDouble(value, &parsed)) return bad_value();
    config->update_zipf_theta = parsed;
    return "";
  }
  if (key == "obs_window") {
    double parsed = 0;
    if (!ParseDouble(value, &parsed)) return bad_value();
    if (parsed <= 0.0) return "obs_window must be positive";
    config->obs_window = parsed;
    return "";
  }
  if (key == "flight_recorder") {
    // Validate eagerly so a bad spec fails at parse time with the trigger
    // grammar's own message, not at System construction.
    if (!value.empty() && value != "off") {
      obs::FlightTriggers triggers;
      const std::string error = obs::ParseFlightTriggerSpec(value, &triggers);
      if (!error.empty()) return "flight_recorder: " + error;
      config->flight_recorder = value;
    } else {
      config->flight_recorder.clear();
    }
    return "";
  }
  if (key == "flight_recorder_max_dumps") {
    std::uint32_t parsed = 0;
    if (!ParseUnsigned(value, &parsed)) return bad_value();
    if (parsed < 1) return "flight_recorder_max_dumps must be >= 1";
    config->flight_recorder_max_dumps = parsed;
    return "";
  }
  if (key == "frames") {
    // Destination grammar only; the sink itself is opened by the CLI at
    // attach time ("-" stdout, "unix:PATH" datagram socket, else a file).
    if (value == "off") {
      config->frames.clear();
    } else {
      config->frames = value;
    }
    return "";
  }

  // fault.* doubles carry eager range checks so a bad plan fails at parse
  // time with the offending key named, not later at System construction.
  struct FaultDoubleKey {
    const char* name;
    double* field;
    double lo;
    double hi;  // Infinity for unbounded-above.
    const char* range;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const FaultDoubleKey fault_doubles[] = {
      {"fault.slot_loss", &config->fault.slot_loss, 0.0, 1.0, "in [0,1]"},
      {"fault.slot_corruption", &config->fault.slot_corruption, 0.0, 1.0,
       "in [0,1]"},
      {"fault.request_loss", &config->fault.request_loss, 0.0, 1.0,
       "in [0,1]"},
      {"fault.request_delay", &config->fault.request_delay, 0.0, inf,
       ">= 0"},
      {"fault.outage_start", &config->fault.outage_start, 0.0, inf, ">= 0"},
      {"fault.outage_duration", &config->fault.outage_duration, 0.0, inf,
       ">= 0"},
      {"fault.outage_period", &config->fault.outage_period, 0.0, inf,
       ">= 0"},
      {"fault.mc_timeout", &config->fault.mc_timeout, 0.0, inf,
       ">= 0 (0 = auto)"},
      {"fault.mc_backoff", &config->fault.mc_backoff, 1.0, inf, ">= 1"},
      {"fault.mc_backoff_cap", &config->fault.mc_backoff_cap, 0.0, inf,
       ">= 0 (0 = auto)"},
      {"fault.mc_jitter", &config->fault.mc_jitter, 0.0, 1.0, "in [0,1]"},
      {"fault.mc_probe_interval", &config->fault.mc_probe_interval, 0.0,
       inf, ">= 0 (0 = auto)"},
      {"fault.shed_hi", &config->fault.shed_hi, 0.0, 1.0, "in [0,1]"},
      {"fault.shed_lo", &config->fault.shed_lo, 0.0, 1.0, "in [0,1]"},
      {"fault.degraded_pull_bw", &config->fault.degraded_pull_bw, 0.0, 1.0,
       "in [0,1]"},
  };
  for (const FaultDoubleKey& entry : fault_doubles) {
    if (key == entry.name) {
      double parsed = 0.0;
      if (!ParseDouble(value, &parsed)) return bad_value();
      if (parsed < entry.lo || parsed > entry.hi) {
        return key + " must be " + entry.range;
      }
      *entry.field = parsed;
      return "";
    }
  }
  if (key == "fault.brownout") {
    return ParseBool(value, &config->fault.brownout) ? "" : bad_value();
  }

  struct DoubleKey {
    const char* name;
    double* field;
  };
  const DoubleKey doubles[] = {
      {"pull_bw", &config->pull_bw},
      {"thres_perc", &config->thres_perc},
      {"zipf_theta", &config->zipf_theta},
      {"noise", &config->noise},
      {"mc_think_time", &config->mc_think_time},
      {"think_time_ratio", &config->think_time_ratio},
      {"steady_state_perc", &config->steady_state_perc},
      {"mc_retry_interval", &config->mc_retry_interval},
      {"update_rate", &config->update_rate},
  };
  for (const DoubleKey& entry : doubles) {
    if (key == entry.name) {
      return ParseDouble(value, entry.field) ? "" : bad_value();
    }
  }

  struct U32Key {
    const char* name;
    std::uint32_t* field;
  };
  const U32Key u32s[] = {
      {"server_db_size", &config->server_db_size},
      {"server_queue_size", &config->server_queue_size},
      {"chop_count", &config->chop_count},
      {"cache_size", &config->cache_size},
      {"fault.mc_max_retries", &config->fault.mc_max_retries},
      {"fault.mc_dead_threshold", &config->fault.mc_dead_threshold},
      {"fault.shed_distance", &config->fault.shed_distance},
  };
  for (const U32Key& entry : u32s) {
    if (key == entry.name) {
      return ParseUnsigned(value, entry.field) ? "" : bad_value();
    }
  }

  struct BoolKey {
    const char* name;
    bool* field;
  };
  const BoolKey bools[] = {
      {"vc_enabled", &config->vc_enabled},
      {"vc_fusion", &config->vc_fusion},
      {"mc_prefetch", &config->mc_prefetch},
      {"adaptive_pull_bw", &config->adaptive_pull_bw},
      {"adaptive_threshold", &config->adaptive_threshold},
  };
  for (const BoolKey& entry : bools) {
    if (key == entry.name) {
      return ParseBool(value, entry.field) ? "" : bad_value();
    }
  }

  if (key == "seed") {
    return ParseUnsigned(value, &config->seed) ? "" : bad_value();
  }
  return "unknown key: " + key;
}

std::string ParseConfigText(const std::string& text, SystemConfig* config) {
  std::stringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return "line " + std::to_string(line_number) + ": expected key = value";
    }
    const std::string error = ApplyConfigOption(
        line.substr(0, eq), line.substr(eq + 1), config);
    if (!error.empty()) {
      return "line " + std::to_string(line_number) + ": " + error;
    }
  }
  return "";
}

std::vector<std::pair<std::string, std::string>> ConfigEntries(
    const SystemConfig& config) {
  std::vector<std::pair<std::string, std::string>> entries;
  const auto text = [](const auto& value) {
    std::ostringstream out;
    out << value;
    return out.str();
  };
  const auto add = [&entries, &text](const char* key, const auto& value) {
    entries.emplace_back(key, text(value));
  };
  const auto list = [](const std::vector<std::uint32_t>& values) {
    std::string joined;
    for (const std::uint32_t v : values) {
      if (!joined.empty()) joined += ",";
      joined += std::to_string(v);
    }
    return joined;
  };
  const auto flag = [](bool on) { return on ? "true" : "false"; };
  add("mode", config.mode == DeliveryMode::kPurePush   ? "push"
              : config.mode == DeliveryMode::kPurePull ? "pull"
                                                       : "ipp");
  add("server_db_size", config.server_db_size);
  add("disk_sizes", list(config.disks.sizes));
  add("disk_freqs", list(config.disks.rel_freqs));
  add("server_queue_size", config.server_queue_size);
  add("pull_bw", config.pull_bw);
  add("thres_perc", config.thres_perc);
  add("chop_count", config.chop_count);
  add("offset", config.offset ? text(*config.offset) : "cache_size");
  add("chunking",
      config.chunking == broadcast::ChunkingMode::kPad ? "pad" : "balanced");
  add("zipf_theta", config.zipf_theta);
  add("noise", config.noise);
  add("cache_size", config.cache_size);
  add("mc_think_time", config.mc_think_time);
  add("think_time_ratio", config.think_time_ratio);
  add("steady_state_perc", config.steady_state_perc);
  add("vc_enabled", flag(config.vc_enabled));
  add("vc_fusion", flag(config.vc_fusion));
  add("mc_retry_interval", config.mc_retry_interval);
  std::string policy;
  if (config.mc_policy.has_value()) {
    policy = cache::PolicyKindName(*config.mc_policy);
    for (char& c : policy) c = static_cast<char>(std::tolower(c));
  }
  add("mc_policy", policy);
  add("seed", config.seed);
  add("update_rate", config.update_rate);
  add("update_zipf_theta",
      config.update_zipf_theta ? text(*config.update_zipf_theta) : "");
  add("mc_prefetch", flag(config.mc_prefetch));
  add("adaptive_pull_bw", flag(config.adaptive_pull_bw));
  add("adaptive_threshold", flag(config.adaptive_threshold));
  add("obs_window", config.obs_window);
  add("flight_recorder", config.flight_recorder);
  add("flight_recorder_max_dumps",
      config.flight_recorder_max_dumps == 1
          ? std::string()
          : std::to_string(config.flight_recorder_max_dumps));
  add("frames", config.frames);
  const fault::FaultPlan& f = config.fault;
  add("fault.slot_loss", f.slot_loss);
  add("fault.slot_corruption", f.slot_corruption);
  add("fault.request_loss", f.request_loss);
  add("fault.request_delay", f.request_delay);
  add("fault.outage_start", f.outage_start);
  add("fault.outage_duration", f.outage_duration);
  add("fault.outage_period", f.outage_period);
  add("fault.brownout", flag(f.brownout));
  add("fault.mc_timeout", f.mc_timeout);
  add("fault.mc_max_retries", f.mc_max_retries);
  add("fault.mc_backoff", f.mc_backoff);
  add("fault.mc_backoff_cap", f.mc_backoff_cap);
  add("fault.mc_jitter", f.mc_jitter);
  add("fault.mc_dead_threshold", f.mc_dead_threshold);
  add("fault.mc_probe_interval", f.mc_probe_interval);
  add("fault.shed_hi", f.shed_hi);
  add("fault.shed_lo", f.shed_lo);
  add("fault.shed_distance", f.shed_distance);
  add("fault.degraded_pull_bw", f.degraded_pull_bw);
  return entries;
}

std::string ConfigToText(const SystemConfig& config) {
  std::string text;
  for (const auto& [key, value] : ConfigEntries(config)) {
    // An empty value is an unset optional: its line is omitted. So is an
    // inert (all-default) fault plan, which keeps pre-fault config text
    // byte-identical; an enabled plan is written in full.
    if (value.empty()) continue;
    if (key.rfind("fault.", 0) == 0 && !config.fault.Enabled()) continue;
    text += key + " = " + value + "\n";
  }
  return text;
}

}  // namespace bdisk::core
