// bdisk_top — live monitor and stream checker for bdisk-frame-v1 JSONL.
//
// Tails the telemetry-bus frame stream a running simulation publishes with
// `bdisk_sim --frames` and renders a rolling dashboard: one row per
// telemetry window (slot mix, queue depth, drop/shed rates, response
// percentiles, access throughput) with lifecycle frames (run start/end,
// degraded-mode edges, flight-recorder fires) interleaved as annotation
// lines. Examples:
//
//   bdisk_top unix:/tmp/bdisk.sock          # live: start this FIRST, then
//                                           #   bdisk_sim --frames unix:/tmp/bdisk.sock
//   bdisk_sim --frames - | bdisk_top -      # live over a pipe
//   bdisk_top frames.jsonl                  # replay a recorded stream
//   bdisk_top frames.jsonl --check --snapshot metrics.json
//
// --check turns the monitor into a stream validator (CI gate): sequence
// numbers must be strictly increasing and the gaps must account exactly
// for the drops the run_end frame reports, and the delta-credit invariant
// must hold — base + sum of every received frame's deltas == run_end
// totals, no matter which frames a slow receiver missed. With --snapshot
// the totals are additionally reconciled against the run's final
// bdisk-metrics-v1 document (same counter names; no mapping table).

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli_numbers.h"
#include "obs/frame_sink.h"
#include "obs/json.h"

namespace {

using bdisk::obs::JsonValue;
using bdisk::obs::ParseJson;

void PrintUsage() {
  std::printf(
      "usage: bdisk_top SOURCE [options]\n"
      "  SOURCE             \"unix:PATH\" binds a datagram socket and waits\n"
      "                     for a publisher (start bdisk_top first, then\n"
      "                     bdisk_sim --frames unix:PATH); \"-\" reads\n"
      "                     stdin; anything else replays a JSONL file\n"
      "  --check            validate the stream instead of just rendering:\n"
      "                     seq gaps must equal reported drops and\n"
      "                     base + sum(deltas) must equal run_end totals\n"
      "                     exactly; exit 1 on any violation\n"
      "  --snapshot FILE    with --check: reconcile run_end totals against\n"
      "                     a bdisk-metrics-v1 snapshot written by the same\n"
      "                     run (bdisk_sim --metrics-json FILE)\n"
      "  --timeout SECS     socket/stdin idle limit while waiting for\n"
      "                     frames (default 30; socket mode only)\n"
      "  --quiet            suppress the dashboard (useful with --check)\n"
      "  --help             this message\n"
      "exit status: 0 clean (with --check: all invariants hold), 1 check\n"
      "failure or stream ended without run_end, 2 usage/IO error.\n");
}

// One name->value counter map parsed out of a frame's "base", "deltas",
// or "totals" object. Values are exact: the writer only emits integers.
using CounterMap = std::map<std::string, long long>;

bool ReadCounters(const JsonValue& frame, const char* key, CounterMap* out) {
  const JsonValue* object = frame.Find(key);
  if (object == nullptr || object->kind != JsonValue::Kind::kObject) {
    return false;
  }
  for (const auto& [name, value] : object->object) {
    (*out)[name] = static_cast<long long>(value.number);
  }
  return true;
}

double Num(const JsonValue& frame, const char* key, double fallback = 0.0) {
  const JsonValue* value = frame.Find(key);
  return value != nullptr && value->kind == JsonValue::Kind::kNumber
             ? value->number
             : fallback;
}

std::string Str(const JsonValue& frame, const char* key) {
  const JsonValue* value = frame.Find(key);
  return value != nullptr && value->kind == JsonValue::Kind::kString
             ? value->string
             : std::string();
}

// ---------------------------------------------------------------------------
// Frame sources: datagram socket, stdin, or file. One Next() call yields one
// frame line (datagram = one frame; streams split on '\n').

class FrameSource {
 public:
  virtual ~FrameSource() = default;
  /// Returns false at end of stream (or idle timeout). `line` is one frame.
  virtual bool Next(std::string* line) = 0;
};

class StreamSource : public FrameSource {
 public:
  explicit StreamSource(std::istream* in) : in_(in) {}
  bool Next(std::string* line) override {
    while (std::getline(*in_, *line)) {
      if (!line->empty()) return true;
    }
    return false;
  }

 private:
  std::istream* in_;
};

class SocketSource : public FrameSource {
 public:
  static std::unique_ptr<SocketSource> Bind(const std::string& path,
                                            double timeout_seconds,
                                            std::string* error) {
    sockaddr_un addr{};
    const std::string invalid = bdisk::obs::ValidateUnixSocketPath(path);
    if (!invalid.empty()) {
      *error = invalid;
      return nullptr;
    }
    const int fd = ::socket(AF_UNIX, SOCK_DGRAM, 0);
    if (fd < 0) {
      *error = std::string("socket(): ") + std::strerror(errno);
      return nullptr;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());  // A stale socket file would make bind fail.
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      *error = "bind(" + path + "): " + std::strerror(errno);
      ::close(fd);
      return nullptr;
    }
    auto source = std::unique_ptr<SocketSource>(new SocketSource);
    source->fd_ = fd;
    source->path_ = path;
    source->timeout_ms_ = static_cast<int>(timeout_seconds * 1000.0);
    return source;
  }

  ~SocketSource() override {
    if (fd_ >= 0) ::close(fd_);
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  bool Next(std::string* line) override {
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
      const int ready = ::poll(&pfd, 1, timeout_ms_);
      if (ready == 0) return false;  // Idle timeout: publisher is gone.
      if (ready < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      char buffer[65536];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return false;
      line->assign(buffer, static_cast<std::size_t>(n));
      while (!line->empty() && line->back() == '\n') line->pop_back();
      if (!line->empty()) return true;
    }
  }

 private:
  SocketSource() = default;
  int fd_ = -1;
  std::string path_;
  int timeout_ms_ = 30000;
};

// ---------------------------------------------------------------------------
// Dashboard rendering.

constexpr int kHeaderEvery = 20;

void PrintHeader() {
  std::printf(
      "%12s %6s %6s %6s %6s %6s %6s %8s %8s %8s\n"
      "------------ ------ ------ ------ ------ ------ ------ -------- "
      "-------- --------\n",
      "sim", "push%", "pull%", "idle%", "qdep", "drop%", "shed%", "p50",
      "p99", "acc/win");
}

void PrintWindowRow(const JsonValue& frame) {
  const JsonValue* window = frame.Find("window");
  const JsonValue* gauges = frame.Find("gauges");
  if (window == nullptr) return;
  const double slots = Num(*window, "slots_push") +
                       Num(*window, "slots_pull") +
                       Num(*window, "slots_idle");
  const double denom = slots > 0.0 ? slots : 1.0;
  long long accesses = 0;
  const JsonValue* deltas = frame.Find("deltas");
  if (deltas != nullptr) {
    accesses = static_cast<long long>(Num(*deltas, "client.mc.accesses"));
  }
  const bool degraded =
      gauges != nullptr && Num(*gauges, "degraded") != 0.0;
  std::printf("%12.0f %6.1f %6.1f %6.1f %6.0f %6.2f %6.2f %8.1f %8.1f %8lld%s\n",
              Num(*window, "end"),
              100.0 * Num(*window, "slots_push") / denom,
              100.0 * Num(*window, "slots_pull") / denom,
              100.0 * Num(*window, "slots_idle") / denom,
              gauges != nullptr ? Num(*gauges, "queue_depth") : 0.0,
              100.0 * Num(*window, "drop_rate"),
              100.0 * Num(*window, "shed_rate"),
              Num(*window, "response_p50"), Num(*window, "response_p99"),
              accesses, degraded ? "  [degraded]" : "");
}

void PrintLifecycle(const std::string& kind, const JsonValue& frame) {
  if (kind == "run_start") {
    std::string provenance;
    const JsonValue* object = frame.Find("provenance");
    if (object != nullptr && object->kind == JsonValue::Kind::kObject) {
      for (const auto& [key, value] : object->object) {
        if (!provenance.empty()) provenance += " ";
        provenance += key + "=" +
                      (value.kind == JsonValue::Kind::kString
                           ? value.string
                           : std::to_string(value.number));
      }
    }
    std::printf("== run_start  %s\n", provenance.c_str());
  } else if (kind == "degraded_enter" || kind == "degraded_exit") {
    std::printf("== %s  sim=%.0f queue_depth=%.0f\n", kind.c_str(),
                Num(frame, "sim"), Num(frame, "queue_depth"));
  } else if (kind == "flight_fire") {
    std::printf("== flight_fire  sim=%.0f trigger=%s value=%g threshold=%g "
                "fire_count=%.0f\n",
                Num(frame, "sim"), Str(frame, "trigger").c_str(),
                Num(frame, "value"), Num(frame, "threshold"),
                Num(frame, "fire_count"));
  } else if (kind == "run_end") {
    std::printf("== run_end  sim=%.0f window_frames=%.0f frames_emitted=%.0f "
                "frames_dropped=%.0f\n",
                Num(frame, "sim"), Num(frame, "window_frames"),
                Num(frame, "frames_emitted"), Num(frame, "frames_dropped"));
  }
}

// ---------------------------------------------------------------------------
// --check state: the delta-credit invariant over whatever subset of frames
// actually arrived.

struct CheckState {
  long long frames_received = 0;
  long long run_start_frames = 0;
  long long run_end_frames = 0;
  long long window_frames_received = 0;
  long long last_seq = -1;
  bool seq_monotone = true;
  CounterMap base_from_start;
  CounterMap delta_sums;
  // run_end payload.
  bool saw_run_end = false;
  long long end_seq = -1;
  CounterMap base_from_end;
  CounterMap totals;
  long long reported_emitted = 0;
  long long reported_dropped = 0;
  long long reported_window_frames = 0;
};

void Accumulate(const CounterMap& add, CounterMap* into) {
  for (const auto& [name, value] : add) (*into)[name] += value;
}

std::vector<std::string> Violations(const CheckState& s,
                                    const CounterMap* snapshot) {
  std::vector<std::string> out;
  const auto fail = [&out](const std::string& message) {
    out.push_back(message);
  };
  if (!s.seq_monotone) fail("sequence numbers are not strictly increasing");
  if (s.run_start_frames > 1) fail("more than one run_start frame");
  if (!s.saw_run_end) {
    fail("stream ended without a run_end frame");
    return out;  // Everything below needs the run_end payload.
  }
  if (s.run_end_frames > 1) fail("more than one run_end frame");
  if (s.end_seq != s.reported_emitted - 1) {
    fail("run_end seq " + std::to_string(s.end_seq) +
         " != frames_emitted-1 (" + std::to_string(s.reported_emitted - 1) +
         ")");
  }
  if (s.last_seq != s.end_seq) fail("frames after run_end");
  const long long missing = s.reported_emitted - s.frames_received;
  if (missing != s.reported_dropped) {
    fail("seq gaps (" + std::to_string(missing) +
         " missing frames) != reported frames_dropped (" +
         std::to_string(s.reported_dropped) + ")");
  }
  if (s.window_frames_received > s.reported_window_frames) {
    fail("received more window frames than run_end reports");
  }
  if (!s.base_from_start.empty() && s.base_from_start != s.base_from_end) {
    fail("run_start base != run_end base");
  }
  // The invariant the bus's credit-on-accept discipline guarantees: the
  // frames that made it through carry, between them, every count.
  for (const auto& [name, total] : s.totals) {
    const auto base_it = s.base_from_end.find(name);
    const long long base =
        base_it != s.base_from_end.end() ? base_it->second : 0;
    const auto delta_it = s.delta_sums.find(name);
    const long long summed =
        delta_it != s.delta_sums.end() ? delta_it->second : 0;
    if (base + summed != total) {
      fail("delta reconciliation: " + name + ": base " +
           std::to_string(base) + " + sum(deltas) " + std::to_string(summed) +
           " != total " + std::to_string(total));
    }
  }
  for (const auto& [name, summed] : s.delta_sums) {
    if (s.totals.find(name) == s.totals.end()) {
      fail("counter " + name + " appears in deltas but not in totals");
    }
  }
  if (snapshot != nullptr) {
    for (const auto& [name, total] : s.totals) {
      const auto it = snapshot->find(name);
      if (it == snapshot->end()) {
        fail("snapshot is missing counter " + name);
      } else if (it->second != total) {
        fail("snapshot mismatch: " + name + ": stream total " +
             std::to_string(total) + " != snapshot " +
             std::to_string(it->second));
      }
    }
  }
  return out;
}

bool LoadSnapshotCounters(const std::string& path, CounterMap* out,
                          std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream body;
  body << file.rdbuf();
  JsonValue document;
  if (!ParseJson(body.str(), &document, error)) return false;
  const JsonValue* schema = document.Find("schema");
  if (schema == nullptr || schema->string != "bdisk-metrics-v1") {
    *error = path + " is not a bdisk-metrics-v1 snapshot";
    return false;
  }
  const JsonValue* counters = document.Find("counters");
  if (counters == nullptr || counters->kind != JsonValue::Kind::kObject) {
    *error = path + " has no counters object";
    return false;
  }
  for (const auto& [name, value] : counters->object) {
    (*out)[name] = static_cast<long long>(value.number);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source_arg;
  std::string snapshot_path;
  bool check = false;
  bool quiet = false;
  double timeout_seconds = 30.0;

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
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--snapshot") {
      snapshot_path = next_value("--snapshot");
    } else if (arg == "--timeout") {
      timeout_seconds =
          bdisk::cli::DoubleFlag("--timeout", next_value("--timeout"), 0.0);
      if (timeout_seconds == 0.0) {
        std::fprintf(stderr, "--timeout expects a positive number\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else if (source_arg.empty()) {
      source_arg = arg;
    } else {
      std::fprintf(stderr, "more than one SOURCE given\n");
      return 2;
    }
  }
  if (source_arg.empty()) {
    PrintUsage();
    return 2;
  }
  if (!snapshot_path.empty() && !check) {
    std::fprintf(stderr, "--snapshot only makes sense with --check\n");
    return 2;
  }

  CounterMap snapshot_counters;
  if (!snapshot_path.empty()) {
    std::string error;
    if (!LoadSnapshotCounters(snapshot_path, &snapshot_counters, &error)) {
      std::fprintf(stderr, "--snapshot: %s\n", error.c_str());
      return 2;
    }
  }

  std::ifstream file_stream;
  std::unique_ptr<FrameSource> source;
  if (source_arg.rfind("unix:", 0) == 0) {
    std::string error;
    source = SocketSource::Bind(source_arg.substr(5), timeout_seconds, &error);
    if (source == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  } else if (source_arg == "-") {
    source = std::make_unique<StreamSource>(&std::cin);
  } else {
    file_stream.open(source_arg);
    if (!file_stream) {
      std::fprintf(stderr, "cannot read %s\n", source_arg.c_str());
      return 2;
    }
    source = std::make_unique<StreamSource>(&file_stream);
  }

  CheckState state;
  int rows_since_header = kHeaderEvery;  // Print the header before row one.
  std::string line;
  bool parse_failure = false;
  while (source->Next(&line)) {
    JsonValue frame;
    std::string error;
    if (!ParseJson(line, &frame, &error)) {
      std::fprintf(stderr, "unparseable frame: %s\n", error.c_str());
      parse_failure = true;
      continue;
    }
    if (Str(frame, "schema") != "bdisk-frame-v1") {
      std::fprintf(stderr, "not a bdisk-frame-v1 frame, skipping\n");
      parse_failure = true;
      continue;
    }
    const std::string kind = Str(frame, "kind");
    const long long seq = static_cast<long long>(Num(frame, "seq", -1.0));

    ++state.frames_received;
    if (seq <= state.last_seq) state.seq_monotone = false;
    state.last_seq = seq;
    CounterMap deltas;
    if (ReadCounters(frame, "deltas", &deltas)) {
      Accumulate(deltas, &state.delta_sums);
    }
    if (kind == "run_start") {
      ++state.run_start_frames;
      ReadCounters(frame, "base", &state.base_from_start);
    } else if (kind == "window") {
      ++state.window_frames_received;
    } else if (kind == "run_end") {
      ++state.run_end_frames;
      state.saw_run_end = true;
      state.end_seq = seq;
      ReadCounters(frame, "base", &state.base_from_end);
      ReadCounters(frame, "totals", &state.totals);
      state.reported_emitted =
          static_cast<long long>(Num(frame, "frames_emitted"));
      state.reported_dropped =
          static_cast<long long>(Num(frame, "frames_dropped"));
      state.reported_window_frames =
          static_cast<long long>(Num(frame, "window_frames"));
    }

    if (!quiet) {
      if (kind == "window") {
        if (rows_since_header >= kHeaderEvery) {
          PrintHeader();
          rows_since_header = 0;
        }
        PrintWindowRow(frame);
        ++rows_since_header;
        std::fflush(stdout);
      } else {
        PrintLifecycle(kind, frame);
        std::fflush(stdout);
      }
    }
    if (kind == "run_end") break;  // A stream describes exactly one run.
  }

  if (!check) {
    if (!state.saw_run_end && state.frames_received > 0) {
      std::fprintf(stderr, "stream ended without run_end\n");
      return 1;
    }
    return state.frames_received > 0 && !parse_failure ? 0 : 1;
  }

  std::vector<std::string> violations = Violations(
      state, snapshot_path.empty() ? nullptr : &snapshot_counters);
  if (parse_failure) violations.push_back("stream contained bad frames");
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", violation.c_str());
  }
  if (violations.empty()) {
    std::fprintf(stderr,
                 "check ok: %lld frames (%lld windows), %lld dropped, "
                 "deltas reconcile%s\n",
                 state.frames_received, state.window_frames_received,
                 state.reported_dropped,
                 snapshot_path.empty() ? "" : " and match the snapshot");
  }
  return violations.empty() ? 0 : 1;
}
