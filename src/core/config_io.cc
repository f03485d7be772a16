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

std::string ConfigToText(const SystemConfig& config) {
  std::stringstream out;
  const char* mode = config.mode == DeliveryMode::kPurePush ? "push"
                     : config.mode == DeliveryMode::kPurePull ? "pull"
                                                              : "ipp";
  out << "mode = " << mode << "\n";
  out << "server_db_size = " << config.server_db_size << "\n";
  out << "disk_sizes = ";
  for (std::size_t i = 0; i < config.disks.sizes.size(); ++i) {
    if (i > 0) out << ",";
    out << config.disks.sizes[i];
  }
  out << "\n";
  out << "disk_freqs = ";
  for (std::size_t i = 0; i < config.disks.rel_freqs.size(); ++i) {
    if (i > 0) out << ",";
    out << config.disks.rel_freqs[i];
  }
  out << "\n";
  out << "server_queue_size = " << config.server_queue_size << "\n";
  out << "pull_bw = " << config.pull_bw << "\n";
  out << "thres_perc = " << config.thres_perc << "\n";
  out << "chop_count = " << config.chop_count << "\n";
  if (config.offset.has_value()) {
    out << "offset = " << *config.offset << "\n";
  } else {
    out << "offset = cache_size\n";
  }
  out << "chunking = "
      << (config.chunking == broadcast::ChunkingMode::kPad ? "pad"
                                                           : "balanced")
      << "\n";
  out << "zipf_theta = " << config.zipf_theta << "\n";
  out << "noise = " << config.noise << "\n";
  out << "cache_size = " << config.cache_size << "\n";
  out << "mc_think_time = " << config.mc_think_time << "\n";
  out << "think_time_ratio = " << config.think_time_ratio << "\n";
  out << "steady_state_perc = " << config.steady_state_perc << "\n";
  out << "vc_enabled = " << (config.vc_enabled ? "true" : "false") << "\n";
  out << "vc_fusion = " << (config.vc_fusion ? "true" : "false") << "\n";
  out << "mc_retry_interval = " << config.mc_retry_interval << "\n";
  if (config.mc_policy.has_value()) {
    const char* policy = cache::PolicyKindName(*config.mc_policy);
    std::string lower(policy);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    out << "mc_policy = " << lower << "\n";
  }
  out << "seed = " << config.seed << "\n";
  out << "update_rate = " << config.update_rate << "\n";
  if (config.update_zipf_theta.has_value()) {
    out << "update_zipf_theta = " << *config.update_zipf_theta << "\n";
  }
  out << "mc_prefetch = " << (config.mc_prefetch ? "true" : "false") << "\n";
  out << "adaptive_pull_bw = "
      << (config.adaptive_pull_bw ? "true" : "false") << "\n";
  out << "adaptive_threshold = "
      << (config.adaptive_threshold ? "true" : "false") << "\n";
  out << "obs_window = " << config.obs_window << "\n";
  if (!config.flight_recorder.empty()) {
    out << "flight_recorder = " << config.flight_recorder << "\n";
  }
  if (config.flight_recorder_max_dumps != 1) {
    out << "flight_recorder_max_dumps = " << config.flight_recorder_max_dumps
        << "\n";
  }
  if (!config.frames.empty()) {
    out << "frames = " << config.frames << "\n";
  }
  if (config.fault.Enabled()) {
    // An inert (all-default) plan is omitted entirely so pre-fault config
    // text stays byte-identical; an enabled plan is written in full.
    const fault::FaultPlan& f = config.fault;
    out << "fault.slot_loss = " << f.slot_loss << "\n";
    out << "fault.slot_corruption = " << f.slot_corruption << "\n";
    out << "fault.request_loss = " << f.request_loss << "\n";
    out << "fault.request_delay = " << f.request_delay << "\n";
    out << "fault.outage_start = " << f.outage_start << "\n";
    out << "fault.outage_duration = " << f.outage_duration << "\n";
    out << "fault.outage_period = " << f.outage_period << "\n";
    out << "fault.brownout = " << (f.brownout ? "true" : "false") << "\n";
    out << "fault.mc_timeout = " << f.mc_timeout << "\n";
    out << "fault.mc_max_retries = " << f.mc_max_retries << "\n";
    out << "fault.mc_backoff = " << f.mc_backoff << "\n";
    out << "fault.mc_backoff_cap = " << f.mc_backoff_cap << "\n";
    out << "fault.mc_jitter = " << f.mc_jitter << "\n";
    out << "fault.mc_dead_threshold = " << f.mc_dead_threshold << "\n";
    out << "fault.mc_probe_interval = " << f.mc_probe_interval << "\n";
    out << "fault.shed_hi = " << f.shed_hi << "\n";
    out << "fault.shed_lo = " << f.shed_lo << "\n";
    out << "fault.shed_distance = " << f.shed_distance << "\n";
    out << "fault.degraded_pull_bw = " << f.degraded_pull_bw << "\n";
  }
  return out.str();
}

}  // namespace bdisk::core
