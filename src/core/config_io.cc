#include "core/config_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"

namespace bdisk::core {

namespace {

using fault::FaultPlan;

std::string Trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// Numbers fail closed: the whole value must be one finite double, or one
// unsigned decimal integer that fits the field (no sign, no wraparound),
// and nothing is written unless it is.
bool ParseValue(const std::string& value, double* out) {
  const char* begin = value.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  // strtod stops at a NUL inside the value; the value does not end there.
  if (end == begin || end != begin + value.size() || !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

// T is std::uint32_t or std::uint64_t; from_chars refuses a sign and
// reports values past T's range.
template <typename T>
bool ParseValue(const std::string& value, T* out) {
  T parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  *out = parsed;
  return true;
}

bool ParseValue(const std::string& value, bool* out) {
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

bool ParseValue(const std::string& value, std::vector<std::uint32_t>* out) {
  std::vector<std::uint32_t> list;
  std::stringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    std::uint32_t parsed = 0;
    if (!ParseValue(Trim(item), &parsed)) return false;
    list.push_back(parsed);
  }
  if (list.empty()) return false;
  *out = std::move(list);
  return true;
}

// %g when that reads back as the same double; otherwise the fewest more
// significant digits that do (17 always do).
std::string FormatDouble(double value) {
  char text[32];
  for (int digits = 6;; ++digits) {
    std::snprintf(text, sizeof text, "%.*g", digits, value);
    if (digits == 17 || std::strtod(text, nullptr) == value) return text;
  }
}

std::string Invalid(const char* key) {
  return std::string("invalid value for ") + key;
}

// ----------------------------------------------------------- Typed codecs

// A typed key's field: a member of SystemConfig, of its fault plan, or of
// its disk shape.
template <auto kMember, typename Config>
auto& FieldOf(Config& config) {
  if constexpr (requires { config.*kMember; }) {
    return config.*kMember;
  } else if constexpr (requires { config.fault.*kMember; }) {
    return config.fault.*kMember;
  } else {
    return config.disks.*kMember;
  }
}

template <auto kMember>
using FieldType = std::remove_cvref_t<decltype(FieldOf<kMember>(
    std::declval<SystemConfig&>()))>;

// The range a number is checked against at parse time, so that a bad plan
// fails with the offending key named, not later at System construction.
enum class Range { kAny, kUnit, kNonNegative, kAuto, kAtLeastOne, kPositive };

// Null when `value` is in `range`; else the range as "<key> must be ..."
// names it.
const char* OutOf(Range range, double value) {
  switch (range) {
    case Range::kAny:
      return nullptr;
    case Range::kUnit:
      return value >= 0.0 && value <= 1.0 ? nullptr : "in [0,1]";
    case Range::kNonNegative:
      return value >= 0.0 ? nullptr : ">= 0";
    case Range::kAuto:
      return value >= 0.0 ? nullptr : ">= 0 (0 = auto)";
    case Range::kAtLeastOne:
      return value >= 1.0 ? nullptr : ">= 1";
    case Range::kPositive:
      return value > 0.0 ? nullptr : "positive";
  }
  return nullptr;
}

template <auto kMember, Range kRange = Range::kAny>
std::string ParseField(const char* key, const std::string& value,
                       SystemConfig* config) {
  FieldType<kMember> parsed{};
  if (!ParseValue(value, &parsed)) return Invalid(key);
  if constexpr (kRange != Range::kAny) {
    if (const char* range = OutOf(kRange, parsed)) {
      return std::string(key) + " must be " + range;
    }
  }
  FieldOf<kMember>(*config) = std::move(parsed);
  return "";
}

template <auto kMember>
std::string PrintField(const SystemConfig& config) {
  const auto& value = FieldOf<kMember>(config);
  using T = FieldType<kMember>;
  if constexpr (std::is_same_v<T, double>) {
    return FormatDouble(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
    std::string joined;
    for (const std::uint32_t v : value) {
      if (!joined.empty()) joined += ",";
      joined += std::to_string(v);
    }
    return joined;
  } else {
    return std::to_string(value);
  }
}

template <auto kMember>
double NumberOf(const SystemConfig& config) {
  return FieldOf<kMember>(config);
}

template <auto kMember, Range kRange = Range::kAny>
constexpr ConfigKey::Codec Field() {
  if constexpr (std::is_same_v<FieldType<kMember>, double>) {
    return {&ParseField<kMember, kRange>, &PrintField<kMember>,
            &NumberOf<kMember>};
  } else {
    return {&ParseField<kMember, kRange>, &PrintField<kMember>};
  }
}

// A key whose value is one of a few words, each naming one value of its
// field. Parse and print read the same spellings.
template <typename T>
struct Word {
  const char* text;
  T value;
};

constexpr Word<DeliveryMode> kModeWords[] = {
    {"push", DeliveryMode::kPurePush},
    {"pull", DeliveryMode::kPurePull},
    {"ipp", DeliveryMode::kIpp}};
constexpr Word<broadcast::ChunkingMode> kChunkingWords[] = {
    {"balanced", broadcast::ChunkingMode::kBalanced},
    {"pad", broadcast::ChunkingMode::kPad}};
// "default" leaves the policy to the mode: PIX with a push program, else P.
constexpr Word<std::optional<cache::PolicyKind>> kPolicyWords[] = {
    {"pix", cache::PolicyKind::kPix},
    {"p", cache::PolicyKind::kP},
    {"lru", cache::PolicyKind::kLru},
    {"lfu", cache::PolicyKind::kLfu},
    {"default", std::nullopt}};

template <auto kMember, const auto& kWords>
std::string ParseWord(const char* key, const std::string& value,
                      SystemConfig* config) {
  const std::size_t n = std::size(kWords);
  std::string choices;
  for (std::size_t i = 0; i < n; ++i) {
    if (value == kWords[i].text) {
      FieldOf<kMember>(*config) = kWords[i].value;
      return "";
    }
    choices += i == 0 ? "" : n == 2 ? " or " : i + 1 == n ? ", or " : ", ";
    choices += kWords[i].text;
  }
  return std::string(key) + " must be " + choices;
}

template <auto kMember, const auto& kWords>
std::string PrintWord(const SystemConfig& config) {
  for (const auto& word : kWords) {
    if (FieldOf<kMember>(config) == word.value) return word.text;
  }
  return "";
}

template <auto kMember, const auto& kWords>
constexpr ConfigKey::Codec Words() {
  return {&ParseWord<kMember, kWords>, &PrintWord<kMember, kWords>};
}

// ---------------------------------------------------------- Custom codecs

// An unset policy is written as no line at all.
std::string PrintMcPolicy(const SystemConfig& config) {
  if (!config.mc_policy) return "";
  return PrintWord<&SystemConfig::mc_policy, kPolicyWords>(config);
}

// The key's name, and the word `offset = cache_size` resets offset with.
constexpr char kCacheSize[] = "cache_size";

std::string ParseOffset(const char* key, const std::string& value,
                        SystemConfig* config) {
  std::uint32_t parsed = 0;
  if (value == kCacheSize) {
    config->offset.reset();
    return "";
  }
  if (!ParseValue(value, &parsed)) return Invalid(key);
  config->offset = parsed;
  return "";
}

std::string PrintOffset(const SystemConfig& config) {
  return config.offset ? std::to_string(*config.offset) : kCacheSize;
}

std::string ParseUpdateZipfTheta(const char* key, const std::string& value,
                                 SystemConfig* config) {
  double parsed = 0.0;
  if (!ParseValue(value, &parsed)) return Invalid(key);
  config->update_zipf_theta = parsed;
  return "";
}

std::string PrintUpdateZipfTheta(const SystemConfig& config) {
  return config.update_zipf_theta ? FormatDouble(*config.update_zipf_theta)
                                  : "";
}

double UpdateZipfTheta(const SystemConfig& config) {
  return config.update_zipf_theta.value_or(0.0);
}

// Validated eagerly so a bad spec fails at parse time with the trigger
// grammar's own message, not at System construction. Empty or "off"
// disarms.
std::string ParseFlightRecorder(const char* key, const std::string& value,
                                SystemConfig* config) {
  if (value.empty() || value == "off") {
    config->flight_recorder.clear();
    return "";
  }
  obs::FlightTriggers triggers;
  const std::string error = obs::ParseFlightTriggerSpec(value, &triggers);
  if (!error.empty()) return std::string(key) + ": " + error;
  config->flight_recorder = value;
  return "";
}

std::string PrintMaxDumps(const SystemConfig& config) {
  return config.flight_recorder_max_dumps == 1
             ? ""
             : std::to_string(config.flight_recorder_max_dumps);
}

// Destination grammar only; the sink itself is opened by the CLI at attach
// time ("-" stdout, "unix:PATH" datagram socket, else a file). "off"
// clears it.
std::string ParseFrames(const char*, const std::string& value,
                        SystemConfig* config) {
  config->frames = value == "off" ? "" : value;
  return "";
}

// ------------------------------------------------------------------ Table

constexpr bool kServed = true;
// Read only by an in-process client, the update generator or the flight
// recorder.
constexpr bool kSimOnly = false;

constexpr ConfigKey kKeys[] = {
    {"mode", kServed, Words<&SystemConfig::mode, kModeWords>()},
    {"server_db_size", kServed, Field<&SystemConfig::server_db_size>()},
    {"disk_sizes", kServed, Field<&broadcast::DiskConfig::sizes>()},
    {"disk_freqs", kServed, Field<&broadcast::DiskConfig::rel_freqs>()},
    {"server_queue_size", kServed, Field<&SystemConfig::server_queue_size>()},
    {"pull_bw", kServed, Field<&SystemConfig::pull_bw>()},
    {"thres_perc", kSimOnly, Field<&SystemConfig::thres_perc>()},
    {"chop_count", kServed, Field<&SystemConfig::chop_count>()},
    {"offset", kServed, {&ParseOffset, &PrintOffset}},
    {"chunking", kServed, Words<&SystemConfig::chunking, kChunkingWords>()},
    {"zipf_theta", kServed, Field<&SystemConfig::zipf_theta>()},
    {"noise", kSimOnly, Field<&SystemConfig::noise>()},
    // cache_size is served: it is the default offset, which shapes the
    // program.
    {kCacheSize, kServed, Field<&SystemConfig::cache_size>()},
    {"mc_think_time", kSimOnly, Field<&SystemConfig::mc_think_time>()},
    {"think_time_ratio", kSimOnly, Field<&SystemConfig::think_time_ratio>()},
    {"steady_state_perc", kSimOnly,
     Field<&SystemConfig::steady_state_perc>()},
    {"vc_enabled", kSimOnly, Field<&SystemConfig::vc_enabled>()},
    {"vc_fusion", kSimOnly, Field<&SystemConfig::vc_fusion>()},
    {"mc_retry_interval", kSimOnly,
     Field<&SystemConfig::mc_retry_interval>()},
    {"mc_policy", kSimOnly,
     {&ParseWord<&SystemConfig::mc_policy, kPolicyWords>, &PrintMcPolicy}},
    {"seed", kServed, Field<&SystemConfig::seed>()},
    {"update_rate", kSimOnly, Field<&SystemConfig::update_rate>()},
    {"update_zipf_theta", kSimOnly,
     {&ParseUpdateZipfTheta, &PrintUpdateZipfTheta, &UpdateZipfTheta}},
    {"mc_prefetch", kSimOnly, Field<&SystemConfig::mc_prefetch>()},
    {"adaptive_pull_bw", kServed, Field<&SystemConfig::adaptive_pull_bw>()},
    {"adaptive_threshold", kSimOnly,
     Field<&SystemConfig::adaptive_threshold>()},
    // obs_window and frames configure the serving half's telemetry.
    {"obs_window", kServed,
     Field<&SystemConfig::obs_window, Range::kPositive>()},
    {"flight_recorder", kSimOnly,
     {&ParseFlightRecorder, &PrintField<&SystemConfig::flight_recorder>}},
    {"flight_recorder_max_dumps", kSimOnly,
     {&ParseField<&SystemConfig::flight_recorder_max_dumps,
                  Range::kAtLeastOne>,
      &PrintMaxDumps}},
    {"frames", kServed, {&ParseFrames, &PrintField<&SystemConfig::frames>}},
    {"fault.slot_loss", kServed, Field<&FaultPlan::slot_loss, Range::kUnit>()},
    {"fault.slot_corruption", kServed,
     Field<&FaultPlan::slot_corruption, Range::kUnit>()},
    {"fault.request_loss", kServed,
     Field<&FaultPlan::request_loss, Range::kUnit>()},
    {"fault.request_delay", kServed,
     Field<&FaultPlan::request_delay, Range::kNonNegative>()},
    {"fault.outage_start", kServed,
     Field<&FaultPlan::outage_start, Range::kNonNegative>()},
    {"fault.outage_duration", kServed,
     Field<&FaultPlan::outage_duration, Range::kNonNegative>()},
    {"fault.outage_period", kServed,
     Field<&FaultPlan::outage_period, Range::kNonNegative>()},
    {"fault.brownout", kServed, Field<&FaultPlan::brownout>()},
    {"fault.mc_timeout", kSimOnly,
     Field<&FaultPlan::mc_timeout, Range::kAuto>()},
    {"fault.mc_max_retries", kSimOnly, Field<&FaultPlan::mc_max_retries>()},
    {"fault.mc_backoff", kSimOnly,
     Field<&FaultPlan::mc_backoff, Range::kAtLeastOne>()},
    {"fault.mc_backoff_cap", kSimOnly,
     Field<&FaultPlan::mc_backoff_cap, Range::kAuto>()},
    {"fault.mc_jitter", kSimOnly, Field<&FaultPlan::mc_jitter, Range::kUnit>()},
    {"fault.mc_dead_threshold", kSimOnly,
     Field<&FaultPlan::mc_dead_threshold>()},
    {"fault.mc_probe_interval", kSimOnly,
     Field<&FaultPlan::mc_probe_interval, Range::kAuto>()},
    {"fault.shed_hi", kServed, Field<&FaultPlan::shed_hi, Range::kUnit>()},
    {"fault.shed_lo", kServed, Field<&FaultPlan::shed_lo, Range::kUnit>()},
    {"fault.shed_distance", kServed, Field<&FaultPlan::shed_distance>()},
    {"fault.degraded_pull_bw", kServed,
     Field<&FaultPlan::degraded_pull_bw, Range::kUnit>()},
};

}  // namespace

std::span<const ConfigKey> ConfigKeys() { return kKeys; }

std::string ApplyConfigOption(const std::string& raw_key,
                              const std::string& raw_value,
                              SystemConfig* config) {
  const std::string key = Trim(raw_key);
  for (const ConfigKey& row : kKeys) {
    if (key == row.name) {
      return row.codec.parse(row.name, Trim(raw_value), config);
    }
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
  entries.reserve(std::size(kKeys));
  for (const ConfigKey& row : kKeys) {
    entries.emplace_back(row.name, row.codec.print(config));
  }
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
