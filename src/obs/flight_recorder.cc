#include "obs/flight_recorder.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry_bus.h"
#include "sim/check.h"

namespace bdisk::obs {

namespace {

/// Splits `text` on `sep`, keeping empty pieces out.
std::vector<std::string> SplitNonEmpty(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    if (end > start) out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string Trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// `text` as it may be echoed in a message: printable ASCII as is, every
/// other byte as \xNN, so a NUL or a control byte cannot cut or garble
/// the line a tool prints with %s.
std::string Escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      char hex[5];
      std::snprintf(hex, sizeof(hex), "\\x%02x", byte);
      out += hex;
    }
  }
  return out;
}

/// Writes `body` to the file at `path`: "" on success, else what failed.
std::string WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "cannot open " + path + " for writing";
  const bool written =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (std::fclose(f) != 0 || !written) return "short write to " + path;
  return "";
}

}  // namespace

std::string ParseFlightTriggerSpec(const std::string& spec,
                                   FlightTriggers* out) {
  *out = FlightTriggers{};
  const std::vector<std::string> parts = SplitNonEmpty(spec, ',');
  if (parts.empty()) {
    return "empty trigger spec (want e.g. \"drop_rate>0.5,p99>2000\")";
  }
  for (const std::string& raw : parts) {
    const std::string part = Trimmed(raw);
    const std::size_t gt = part.find('>');
    if (gt == std::string::npos) {
      return "trigger \"" + Escaped(part) +
             "\" is missing '>' (want name>threshold)";
    }
    const std::string name = Trimmed(part.substr(0, gt));
    const std::string shown = Escaped(name);
    const std::string value_text = Trimmed(part.substr(gt + 1));
    const char* begin = value_text.c_str();
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    // strtod stops at a NUL inside the text; the threshold does not end
    // there.
    if (end == begin || end != begin + value_text.size()) {
      return "trigger \"" + shown + "\" has unparsable threshold \"" +
             Escaped(value_text) + "\"";
    }
    // Infinity is also FlightTriggers::kDisarmed, and no window compares
    // above NaN: neither arms anything.
    if (!std::isfinite(value)) {
      return "trigger \"" + shown + "\" threshold must be finite";
    }
    if (value < 0.0) {
      return "trigger \"" + shown + "\" threshold must be >= 0";
    }
    double* slot = nullptr;
    if (name == "drop_rate") {
      slot = &out->drop_rate;
    } else if (name == "p99") {
      slot = &out->p99;
    } else if (name == "queue_depth") {
      slot = &out->queue_depth;
    } else if (name == "shed_rate") {
      slot = &out->shed_rate;
    } else if (name == "loss_rate") {
      slot = &out->loss_rate;
    } else {
      return "unknown trigger \"" + shown +
             "\" (know drop_rate, p99, queue_depth, shed_rate, loss_rate)";
    }
    if (*slot != FlightTriggers::kDisarmed) {
      return "trigger \"" + shown + "\" given twice";
    }
    *slot = value;
  }
  return "";
}

FlightRecorder::FlightRecorder(const FlightTriggers& triggers,
                               std::string path_prefix,
                               std::uint32_t max_dumps)
    : triggers_(triggers),
      path_prefix_(std::move(path_prefix)),
      max_dumps_(max_dumps) {
  BDISK_CHECK_MSG(max_dumps_ >= 1, "flight recorder max_dumps must be >= 1");
}

void FlightRecorder::OnWindow(const WindowStats& window) {
  ++windows_evaluated_;
  if (disarmed_) return;
  if (window.DropRate() > triggers_.drop_rate) {
    Fire(window, "drop_rate", triggers_.drop_rate, window.DropRate());
  } else if (window.response_p99 > triggers_.p99) {
    Fire(window, "p99", triggers_.p99, window.response_p99);
  } else if (static_cast<double>(window.queue_depth_max) >
             triggers_.queue_depth) {
    Fire(window, "queue_depth", triggers_.queue_depth,
         static_cast<double>(window.queue_depth_max));
  } else if (window.ShedRate() > triggers_.shed_rate) {
    Fire(window, "shed_rate", triggers_.shed_rate, window.ShedRate());
  } else if (window.LossRate() > triggers_.loss_rate) {
    Fire(window, "loss_rate", triggers_.loss_rate, window.LossRate());
  }
}

void FlightRecorder::Fire(const WindowStats& window, const char* trigger,
                          double threshold, double value) {
  ++fire_count_;
  // Multi-shot: stay armed until the dump budget is spent. Each firing
  // window has a distinct end time, so file names never collide.
  disarmed_ = fire_count_ >= max_dumps_;
  if (bus_ != nullptr) {
    bus_->OnFlightFire(window.end, trigger, threshold, value, fire_count_);
  }
  // The shortest spelling that reads back as the window's end, so windows
  // of fractional width get distinct names too.
  char end[32];
  const char* end_last =
      std::to_chars(end, end + sizeof(end), window.end).ptr;
  const std::string stem = path_prefix_ + "t" +
                           std::string(end, end_last - end) + "-" + trigger;
  MetricsRegistry registry;
  if (snapshot_) snapshot_(&registry);
  registry.GetGauge("flight.fired_at")->Set(window.end);
  registry.GetGauge("flight.window_start")->Set(window.start);
  registry.GetGauge("flight.threshold")->Set(threshold);
  registry.GetGauge("flight.value")->Set(value);
  last_error_ = WriteFile(stem + ".json", registry.ToJson());
  if (last_error_.empty() && sink_ != nullptr) {
    last_error_ = WriteFile(stem + ".jsonl", sink_->ToJsonl(window.start));
  }
  if (last_error_.empty()) dump_stem_ = stem;
}

}  // namespace bdisk::obs
