#include "bench.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/json.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"sim_slots_per_s", "1/s"},
      {"pull_rtt_p50_us", "us"},
      {"pull_rtt_p99_us", "us"},
      {"serve_capacity_slots_per_s", "1/s"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"core.build_artifacts_s", "s"},
      {"core.system_ctor_s", "s"},
      {"sim.events_per_slot", "events/slot"},
      {"sim.slots_per_span", "slots/span"},
      {"sim.heap_high_water", "events"},
      {"sim.arrivals_per_drain", "arrivals/drain"},
      {"prof.kernel.span.self_ns_per_slot", "ns"},
      {"prof.kernel.drain.self_ns_per_op", "ns"},
      {"prof.queue.pop.ns_per_op", "ns"},
      {"prof.queue.schedule.ns_per_op", "ns"},
      {"client.vc_arrivals_per_slot", "1/slot"},
      {"client.vc_submit_ratio", "ratio"},
      {"client.mc_hit_rate", "ratio"},
      {"client.rtt_samples", "count"},
      {"prof.vc.arrival.ns_per_op", "ns"},
      {"prof.mc.delivery.ns_per_op", "ns"},
      {"prof.mc.request.ns_per_op", "ns"},
      {"server.queue_accept_ratio", "ratio"},
      {"server.queue_coalesce_ratio", "ratio"},
      {"server.queue_drop_ratio", "ratio"},
      {"server.pull_slot_frac", "ratio"},
      {"server.pull_wait_slots_p50", "slots"},
      {"server.pull_wait_slots_p99", "slots"},
      {"prof.server.queue.ns_per_op", "ns"},
      {"prof.server.mux.ns_per_op", "ns"},
      {"prof.server.slot.self_ns_per_slot", "ns"},
      {"obs.frames_per_kslot", "frames/kslot"},
      {"obs.frames_dropped", "count"},
      {"obs.overhead_frac", "ratio"},
      {"transport.bind_s", "s"},
      {"transport.connect_s", "s"},
      {"transport.tick_us", "us"},
      {"transport.poll_us_per_datagram", "us"},
      {"transport.slot_lag_p50_us", "us"},
      {"transport.slot_lag_p99_us", "us"},
      {"transport.serve_idle_frac", "ratio"},
      {"transport.peer_recv_us_per_datagram", "us"},
      {"transport.peer_send_us_per_pull", "us"},
      {"transport.drop_ratio", "ratio"},
      {"transport.pulls_rx", "count"},
      {"transport.malformed_rx", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  human.push_back("gate failure: " + why);
}

void PrintOutcome(Outcome* outcome, bool traced) {
  const std::vector<MetricSpec>& table =
      traced ? PerLayerMetrics() : EndToEndMetrics();
  for (const std::string& line : outcome->human) {
    std::printf("%s\n", line.c_str());
  }
  // Validate before printing so the JSON line reflects every check.
  for (const MetricSpec& spec : table) {
    const auto it = outcome->values.find(spec.name);
    if (it == outcome->values.end()) {
      outcome->Fail(std::string("metric not measured: ") + spec.name);
    } else if (!std::isfinite(it->second)) {
      outcome->Fail(std::string("metric not finite: ") + spec.name);
      it->second = 0.0;
    }
  }
  std::printf("%s metrics:\n", traced ? "per-layer" : "end-to-end");
  for (const MetricSpec& spec : table) {
    const auto it = outcome->values.find(spec.name);
    std::printf("  %-38s %.6g %s\n", spec.name,
                it == outcome->values.end() ? 0.0 : it->second, spec.unit);
  }
  std::printf("failed operations: %llu of %llu (%.4g%%)\n",
              static_cast<unsigned long long>(outcome->failed),
              static_cast<unsigned long long>(outcome->attempted),
              outcome->attempted == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(outcome->failed) /
                        static_cast<double>(outcome->attempted));

  bdisk::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Value(outcome->correct);
  w.Key("attempted");
  w.Value(outcome->attempted);
  w.Key("failed");
  w.Value(outcome->failed);
  w.Key("metrics");
  w.BeginObject();
  for (const MetricSpec& spec : table) {
    const auto it = outcome->values.find(spec.name);
    w.Key(spec.name);
    w.BeginObject();
    w.Key("value");
    w.Value(it == outcome->values.end() ? 0.0 : it->second);
    w.Key("unit");
    w.Value(spec.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // ceil(q * n), with slack for q's rounding (1 - 0.99 is not 0.01).
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double SupportedQuantile(std::size_t n, double q) {
  // Whole percents, highest first; integer arithmetic keeps ceil exact.
  int pct = static_cast<int>(std::floor(q * 100.0 + 1e-9));
  for (; pct >= 1; --pct) {
    const std::size_t rank =
        (static_cast<std::size_t>(pct) * n + 99) / 100;  // ceil(p*n)
    if (n >= rank + 10) return static_cast<double>(pct) / 100.0;
  }
  return 0.0;
}

Tail TailPercentile(std::vector<double>* samples, double q) {
  Tail tail;
  tail.n = samples->size();
  tail.q = SupportedQuantile(tail.n, q);
  if (tail.q <= 0.0) return tail;
  std::sort(samples->begin(), samples->end());
  const std::size_t pct = static_cast<std::size_t>(tail.q * 100.0 + 0.5);
  const std::size_t rank = (pct * tail.n + 99) / 100;  // 1-based.
  tail.value = (*samples)[rank == 0 ? 0 : rank - 1];
  return tail;
}

std::string DescribeTail(const char* what, const Tail& tail,
                         const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s p%.0f = %.6g %s (n=%zu)", what,
                tail.q * 100.0, tail.value, unit, tail.n);
  return buf;
}

std::vector<std::string> CheckSimInvariants(const bdisk::core::RunResult& r) {
  std::vector<std::string> problems;
  const double slot_sum = r.push_slot_frac + r.pull_slot_frac +
                          r.idle_slot_frac;
  if (std::fabs(slot_sum - 1.0) > 1e-9) {
    problems.push_back("push+pull+idle slot fractions sum to " +
                       std::to_string(slot_sum));
  }
  if (r.requests_submitted !=
      r.requests_accepted + r.requests_coalesced + r.requests_dropped) {
    problems.push_back(
        "requests_submitted " + std::to_string(r.requests_submitted) +
        " != accepted + coalesced + dropped " +
        std::to_string(r.requests_accepted + r.requests_coalesced +
                       r.requests_dropped));
  }
  if (r.vc_requests_generated !=
      r.vc_cache_hits + r.vc_filtered + r.vc_submitted) {
    problems.push_back(
        "vc_requests_generated " + std::to_string(r.vc_requests_generated) +
        " != cache hits + filtered + submitted " +
        std::to_string(r.vc_cache_hits + r.vc_filtered + r.vc_submitted));
  }
  return problems;
}

namespace {

class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace

std::uint64_t SimDigest(const bdisk::core::RunResult& r) {
  Fnv1a h;
  h.Add(r.mc_accesses);
  h.Add(r.mc_hit_rate);
  h.Add(r.mc_pulls_sent);
  h.Add(r.mc_retries_sent);
  h.Add(r.mc_cache_evictions);
  h.Add(r.vc_requests_generated);
  h.Add(r.vc_cache_hits);
  h.Add(r.vc_filtered);
  h.Add(r.vc_submitted);
  h.Add(r.requests_submitted);
  h.Add(r.requests_accepted);
  h.Add(r.requests_coalesced);
  h.Add(r.requests_dropped);
  h.Add(static_cast<std::uint64_t>(r.queue_depth_high_water));
  h.Add(r.push_slot_frac);
  h.Add(r.pull_slot_frac);
  h.Add(r.idle_slot_frac);
  h.Add(r.response_stats.Count());
  h.Add(r.mean_response);
  h.Add(r.response_max);
  h.Add(r.response_p50);
  h.Add(r.response_p99);
  h.Add(static_cast<std::uint64_t>(r.major_cycle_len));
  h.Add(r.sim_time_end);
  return h.value();
}

std::vector<std::string> CheckServeReconcile(
    const std::vector<PeerReconcile>& peers,
    const bdisk::transport::TransportCounters& server) {
  std::vector<std::string> problems;
  std::uint64_t pulls_sent = 0;
  for (const PeerReconcile& p : peers) {
    const std::string who = "peer " + p.client_id + ": ";
    pulls_sent += p.client.pulls_sent;
    if (!p.got_stats) {
      problems.push_back(who + "no STATS reply to BYE");
      continue;
    }
    if (p.stats.pulls_rx != p.client.pulls_sent) {
      problems.push_back(who + "server pulls_rx " +
                         std::to_string(p.stats.pulls_rx) +
                         " != client pulls_sent " +
                         std::to_string(p.client.pulls_sent));
    }
    if (p.stats.slots_tx_epoch != p.client.slots_rx_epoch) {
      problems.push_back(who + "server slots_tx_epoch " +
                         std::to_string(p.stats.slots_tx_epoch) +
                         " != client slots_rx_epoch " +
                         std::to_string(p.client.slots_rx_epoch));
    }
    if (p.client.malformed_rx != 0) {
      problems.push_back(who + std::to_string(p.client.malformed_rx) +
                         " malformed datagrams received");
    }
  }
  if (server.malformed_rx != 0) {
    problems.push_back("server received " +
                       std::to_string(server.malformed_rx) +
                       " malformed datagrams");
  }
  if (server.pulls_rx != pulls_sent) {
    problems.push_back("server pulls_rx total " +
                       std::to_string(server.pulls_rx) +
                       " != pulls sent by all peers " +
                       std::to_string(pulls_sent));
  }
  return problems;
}

SpanRecorder::SpanRecorder(int tid, const char* thread_name,
                           std::size_t capacity)
    : tid_(tid), thread_name_(thread_name), capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint64_t SpanRecorder::Add(const char* name, Clock::time_point start,
                                Clock::time_point end, std::uint64_t parent,
                                std::uint64_t pull, std::int64_t arg,
                                std::uint64_t id) {
  if (id == 0) id = NextId();
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{name, id, parent, pull, arg, start, end});
  } else {
    ++dropped_;
  }
  return id;
}

bool WriteChromeTrace(const std::string& path, Clock::time_point epoch,
                      const std::vector<const SpanRecorder*>& recorders) {
  const auto us = [epoch](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  bdisk::obs::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  w.BeginObject();
  w.Key("name");
  w.Value("process_name");
  w.Key("ph");
  w.Value("M");
  w.Key("pid");
  w.Value(std::uint64_t{1});
  w.Key("tid");
  w.Value(std::uint64_t{0});
  w.Key("args");
  w.BeginObject();
  w.Key("name");
  w.Value("bdisk perfbench");
  w.EndObject();
  w.EndObject();
  for (const SpanRecorder* rec : recorders) {
    const auto tid = static_cast<std::uint64_t>(rec->tid());
    w.BeginObject();
    w.Key("name");
    w.Value("thread_name");
    w.Key("ph");
    w.Value("M");
    w.Key("pid");
    w.Value(std::uint64_t{1});
    w.Key("tid");
    w.Value(tid);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.Value(rec->thread_name());
    w.Key("spans_dropped");
    w.Value(rec->dropped());
    w.EndObject();
    w.EndObject();
    for (const Span& s : rec->spans()) {
      w.BeginObject();
      w.Key("name");
      w.Value(s.name);
      w.Key("cat");
      w.Value("bench");
      w.Key("ph");
      w.Value("X");
      w.Key("pid");
      w.Value(std::uint64_t{1});
      w.Key("tid");
      w.Value(tid);
      w.Key("ts");
      w.Value(us(s.start));
      w.Key("dur");
      w.Value(us(s.end) - us(s.start));
      w.Key("args");
      w.BeginObject();
      w.Key("id");
      w.Value(s.id);
      w.Key("parent");
      w.Value(s.parent);
      if (s.pull != 0) {
        w.Key("pull");
        w.Value(s.pull);
      }
      if (s.arg >= 0) {
        w.Key("arg");
        w.Value(s.arg);
      }
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.Value("ms");
  w.EndObject();
  return WriteFile(path, w.str());
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), out) ==
                  text.size();
  return std::fclose(out) == 0 && ok;
}

double PeakRssMiB() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the pre-exec image, i.e. of whichever process spawned this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

}  // namespace perfbench
