#include "obs/flight_recorder.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/json.h"
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

std::string FlightRecorder::BuildDump(const WindowStats& window,
                                      const char* trigger, double threshold,
                                      double value) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.Value("bdisk-flight-v1");
  w.Key("fired_at");
  w.Value(window.end);
  w.Key("trigger");
  w.Value(trigger);
  w.Key("threshold");
  w.Value(threshold);
  w.Key("value");
  w.Value(value);
  w.Key("window");
  w.BeginObject();
  w.Key("start");
  w.Value(window.start);
  w.Key("end");
  w.Value(window.end);
  w.Key("slots_push");
  w.Value(window.slots_push);
  w.Key("slots_pull");
  w.Value(window.slots_pull);
  w.Key("slots_idle");
  w.Value(window.slots_idle);
  w.Key("submits");
  w.Value(window.submits);
  w.Key("accepted");
  w.Value(window.accepted);
  w.Key("coalesced");
  w.Value(window.coalesced);
  w.Key("dropped");
  w.Value(window.dropped);
  w.Key("shed");
  w.Value(window.shed);
  w.Key("outage_dropped");
  w.Value(window.outage_dropped);
  w.Key("lost");
  w.Value(window.lost);
  w.Key("slots_lost");
  w.Value(window.slots_lost);
  w.Key("drop_rate");
  w.Value(window.DropRate());
  w.Key("queue_depth");
  w.Value(static_cast<std::uint64_t>(window.queue_depth));
  w.Key("queue_depth_max");
  w.Value(static_cast<std::uint64_t>(window.queue_depth_max));
  w.Key("responses");
  w.Value(window.responses);
  w.Key("response_mean");
  w.Value(window.response_mean);
  w.Key("response_p50");
  w.Value(window.response_p50);
  w.Key("response_p99");
  w.Value(window.response_p99);
  w.Key("response_max");
  w.Value(window.response_max);
  w.EndObject();
  // JsonWriter has no raw-splice primitive; the snapshot callback returns a
  // complete JSON document, so assemble the tail by hand.
  w.Key("metrics");
  std::string out = w.str();
  if (snapshot_) {
    out += snapshot_();
  } else {
    out += "null";
  }
  out += ",\"trace\":[";
  if (sink_ != nullptr) {
    char line[192];
    bool first = true;
    for (const SpanRecord& r : sink_->Events()) {
      if (r.time < window.start) continue;  // Trailing window only.
      const long long client =
          r.client == kNoClient ? -1LL : static_cast<long long>(r.client);
      const long long page =
          r.page == kNoTracePage ? -1LL : static_cast<long long>(r.page);
      std::snprintf(line, sizeof(line),
                    "%s{\"t\":%.3f,\"ev\":\"%s\",\"client\":%lld,"
                    "\"page\":%lld,\"v\":%g}",
                    first ? "" : ",", r.time, SpanEventName(r.event), client,
                    page, r.value);
      out += line;
      first = false;
    }
  }
  out += "]}";
  return out;
}

void FlightRecorder::Fire(const WindowStats& window, const char* trigger,
                          double threshold, double value) {
  ++fire_count_;
  // Multi-shot: stay armed until the dump budget is spent. Each firing
  // window has a distinct end time, so filenames never collide.
  disarmed_ = fire_count_ >= max_dumps_;
  if (bus_ != nullptr) {
    bus_->OnFlightFire(window.end, trigger, threshold, value, fire_count_);
  }
  char stamp[48];
  std::snprintf(stamp, sizeof(stamp), "t%.0f.json", window.end);
  const std::string path = path_prefix_ + stamp;
  const std::string dump = BuildDump(window, trigger, threshold, value);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    last_error_ = "cannot open " + path + " for writing";
    return;
  }
  const std::size_t written = std::fwrite(dump.data(), 1, dump.size(), f);
  std::fclose(f);
  if (written != dump.size()) {
    last_error_ = "short write to " + path;
    return;
  }
  dump_path_ = path;
  last_error_.clear();
}

}  // namespace bdisk::obs
