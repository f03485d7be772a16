// serve_wire: the live path in one process. A server thread paces a
// BroadcastServer + DatagramServerTransport at one slot per 20 us through
// the calls tools/bdisk_serve.cc makes (Simulator::RunUntil per tick, Poll,
// EvictDeadPeers); a load thread drives four DatagramClientChannel peers,
// each a closed loop with zero think time: draw a page from the paper's
// access pattern, SendPull, wait for any SLOT carrying the page.
//
// The paced session is cut into windows. RTT percentiles are taken per
// half-second window and reported as the median over the windows, so a
// stall that spoils one window moves them by at most one rank. Busy time
// is kept per 10 ms window, and the slot rates are read from the fastest
// windows (FastRate), when the host left the serve thread's core alone.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/system.h"
#include "obs/phase_profiler.h"
#include "server/broadcast_server.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/access_generator.h"

namespace perfbench {
namespace {

namespace core = bdisk::core;
namespace transport = bdisk::transport;
namespace wire = bdisk::transport::wire;
using bdisk::obs::Phase;

constexpr std::chrono::nanoseconds kSlotPace{20000};  // 50k slots/s.
constexpr std::uint64_t kWindowSlots = 25000;         // Half a second.
constexpr std::uint64_t kBusyWindowSlots = 500;       // 10 ms.
/// Host-time metrics come from the fastest hundredth of busy windows (and
/// set-ups), not the fastest one: in a window where the load thread
/// stalled, the server polls fewer pulls and reads fast by accident.
constexpr double kFastQuantile = 0.99;
constexpr int kPeers = 4;  // The host's connection cap: one per core.
/// Setup (bind plus four handshakes) is repeated this many times before
/// the measured session (the last one carries it) and again after it;
/// FastTime over both is reported.
constexpr int kSetupTrials = 21;
constexpr int kGoodbyeTimeoutMs = 2000;

enum Mode : int { kHandshake, kPace, kDrain, kExit };

/// Server-thread accounting for one busy window (kBusyWindowSlots).
struct ServeWindow {
  std::uint64_t slots = 0;
  double tick_s = 0.0;  // Inside RunUntil (kernel, MUX, slot fan-out).
  double poll_s = 0.0;  // Inside Poll calls on a readable socket.
  std::uint64_t polled = 0;  // Datagrams those Polls consumed.
  std::vector<double> lag_us;  // Tick start minus due time.
};

/// Load-thread accounting for one window (kWindowSlots; pulls by answer
/// time).
struct LoadWindow {
  std::vector<double> rtt_us;
  std::vector<double> wait_slots;
  std::uint64_t timed_out = 0;
  std::uint64_t datagrams = 0;
  double recv_s = 0.0;  // Inside PollMessages calls that returned data.
  std::uint64_t pulls = 0;
  double send_s = 0.0;  // Inside SendPull.
};

/// One serving session: kernel, server and transport, plus the thread
/// that drives them. The destructor stops and joins the thread.
struct ServerSide {
  ServerSide(const core::SystemConfig& config,
             std::shared_ptr<const bdisk::broadcast::BroadcastProgram> program)
      : server(&simulator, std::move(program), config.EffectivePullBw(),
               config.server_queue_size, bdisk::sim::Rng(config.seed).Split()) {}
  ~ServerSide() {
    mode.store(kExit, std::memory_order_release);
    if (thread.joinable()) thread.join();
  }
  ServerSide(const ServerSide&) = delete;
  ServerSide& operator=(const ServerSide&) = delete;

  double Wall() const { return Seconds(origin, Clock::now()); }

  bdisk::sim::Simulator simulator;
  bdisk::server::BroadcastServer server;
  transport::DatagramServerTransport transport;
  Clock::time_point origin = Clock::now();

  // Set before mode leaves kHandshake (published by the release store).
  Clock::time_point pace_start;
  std::uint64_t slots_to_pace = 0;
  std::uint64_t traced_from = 0;  // First slot of the traced half.
  bdisk::obs::PhaseProfiler* profiler = nullptr;
  SpanRecorder* spans = nullptr;
  std::vector<ServeWindow> windows;  // slots_to_pace / kBusyWindowSlots.
  Clock::time_point untraced_end;    // Written by the thread.

  std::atomic<int> mode{kHandshake};
  std::atomic<bool> bound{false};
  std::atomic<bool> pacing_done{false};
  std::thread thread;  // Last: joined before the members above die.
};

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread to `cpus` (empty: leaves it as it is).
/// The serve and load threads both spin; left to the scheduler they
/// sometimes share a CPU for hundreds of milliseconds, and the starved
/// reader then loses slots to backpressure. The main thread, which runs
/// the handshakes, is kept off both of their CPUs for the same reason.
void PinSelf(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Answers HELLO/BYE while idle, paces `slots_to_pace` slots when told to,
/// then answers BYEs until told to exit. Idle waits spin, as bdisk_serve's
/// loop does whenever less than a millisecond remains to the next slot.
void ServeLoop(ServerSide* s, std::vector<int> cpus) {
  PinSelf(cpus);
  const auto idle_poll = [s] {
    if (s->transport.WaitReadable(0)) s->transport.Poll(s->Wall());
  };
  while (s->mode.load(std::memory_order_acquire) == kHandshake) {
    if (s->bound.load(std::memory_order_acquire)) idle_poll();
  }
  if (s->mode.load(std::memory_order_acquire) == kPace) {
    s->untraced_end = s->pace_start;
    for (std::uint64_t k = 0; k < s->slots_to_pace; ++k) {
      if (k == s->traced_from && s->profiler != nullptr) {
        s->untraced_end = Clock::now();
        s->simulator.SetPhaseProfiler(s->profiler);
        s->server.SetPhaseProfiler(s->profiler);
      }
      ServeWindow& window = s->windows[k / kBusyWindowSlots];
      SpanRecorder* spans = k >= s->traced_from ? s->spans : nullptr;
      const Clock::time_point due =
          s->pace_start + kSlotPace * static_cast<std::int64_t>(k + 1);
      // Same wait as bdisk_serve: block on the socket in whole
      // milliseconds, so below 1 ms remaining this spins. Only Polls on a
      // readable socket count as busy.
      for (Clock::time_point now = Clock::now(); now < due;
           now = Clock::now()) {
        const double remaining = Seconds(now, due);
        const int timeout_ms =
            remaining >= 0.05 ? 50 : static_cast<int>(remaining * 1000.0);
        if (!s->transport.WaitReadable(timeout_ms)) continue;
        const Clock::time_point a = Clock::now();
        const int got = s->transport.Poll(Seconds(s->origin, a));
        const Clock::time_point b = Clock::now();
        window.poll_s += Seconds(a, b);
        window.polled += static_cast<std::uint64_t>(got);
        if (spans != nullptr) spans->Add("transport.Poll", a, b, 0, 0, got);
      }
      const std::uint64_t seq_before = s->transport.SlotSeq();
      const Clock::time_point a = Clock::now();
      s->simulator.RunUntil(static_cast<double>(k + 1));
      const Clock::time_point b = Clock::now();
      s->transport.EvictDeadPeers(Seconds(s->origin, b));
      window.tick_s += Seconds(a, b);
      ++window.slots;
      window.lag_us.push_back(
          std::chrono::duration<double, std::micro>(a - due).count());
      if (spans != nullptr) {
        const bool sent = s->transport.SlotSeq() > seq_before;
        spans->Add("sim.RunUntil", a, b, 0, 0,
                   sent ? static_cast<std::int64_t>(seq_before) : -1);
      }
    }
    if (s->profiler != nullptr) {
      s->profiler->Finalize();
      s->simulator.SetPhaseProfiler(nullptr);
      s->server.SetPhaseProfiler(nullptr);
    } else {
      s->untraced_end = Clock::now();
    }
    s->pacing_done.store(true, std::memory_order_release);
  }
  while (s->mode.load(std::memory_order_acquire) != kExit) idle_poll();
  s->transport.Poll(s->Wall());
}

struct Peer {
  std::string id;
  transport::DatagramClientChannel channel;
  bdisk::sim::Rng rng;
  bool awaiting = false;
  bdisk::broadcast::PageId page = 0;
  Clock::time_point sent;
  std::uint64_t seq_before = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t heard = 0;  // Consecutive SLOTs heard since the pull.
  std::uint64_t pull_id = 0;
};

struct Answer {
  std::uint64_t pull_id;
  std::int64_t seq;
};

/// The four peers' closed loops, on one thread, until pacing ends. A pull
/// fails when its peer hears `timeout_slots` consecutive SLOTs (no seq gap)
/// without its page: a reader that was descheduled, or whose slots were
/// dropped, has not heard the cycle and does not fail.
struct LoadSide {
  std::vector<std::unique_ptr<Peer>> peers;
  std::vector<LoadWindow> windows;
  std::uint64_t in_flight_at_end = 0;
  std::vector<Answer> answers;  // Traced half: pull -> answering slot.
};

void LoadLoop(LoadSide* load, const ServerSide* s,
              const bdisk::workload::AccessGenerator* gen,
              std::uint64_t timeout_slots, SpanRecorder* spans,
              std::vector<int> cpus) {
  PinSelf(cpus);
  const auto window_of = [load, s](Clock::time_point t) {
    const auto slot = (t - s->pace_start) / kSlotPace;
    const std::size_t w =
        slot <= 0 ? 0 : static_cast<std::size_t>(slot) / kWindowSlots;
    return std::min(w, load->windows.size() - 1);
  };
  const std::size_t traced_window = s->traced_from / kWindowSlots;
  std::vector<wire::Message> messages;
  while (!s->pacing_done.load(std::memory_order_acquire)) {
    for (std::unique_ptr<Peer>& peer_ptr : load->peers) {
      Peer& p = *peer_ptr;
      messages.clear();
      const Clock::time_point a = Clock::now();
      const int got = p.channel.PollMessages(0, &messages);
      const Clock::time_point b = Clock::now();
      const std::size_t w = window_of(b);
      const bool traced = spans != nullptr && w >= traced_window;
      LoadWindow& window = load->windows[w];
      if (got > 0) {
        window.recv_s += Seconds(a, b);
        window.datagrams += static_cast<std::uint64_t>(got);
      }
      for (const wire::Message& m : messages) {
        if (m.type != wire::MsgType::kSlot) continue;
        // A seq gap means slots were dropped on the way to this peer; the
        // page may have gone by unheard, so the timeout restarts.
        if (m.seq != p.last_seq + 1) p.heard = 0;
        p.last_seq = m.seq;
        if (!p.awaiting) continue;
        if (m.page == p.page) {
          p.awaiting = false;
          window.rtt_us.push_back(
              std::chrono::duration<double, std::micro>(b - p.sent).count());
          window.wait_slots.push_back(
              static_cast<double>(m.seq - p.seq_before));
          if (traced && p.pull_id != 0) {
            const auto seq = static_cast<std::int64_t>(m.seq);
            spans->Add("client.PollMessages", a, b, p.pull_id, p.pull_id, seq);
            spans->Add("pull", p.sent, b, 0, p.pull_id, seq, p.pull_id);
            load->answers.push_back(Answer{p.pull_id, seq});
          }
        } else if (++p.heard >= timeout_slots) {
          p.awaiting = false;
          ++window.timed_out;
        }
      }
      if (p.awaiting) continue;
      p.page = gen->Next(p.rng);
      const Clock::time_point c = Clock::now();
      const bool ok = p.channel.SendPull(p.page);
      const Clock::time_point d = Clock::now();
      if (!ok) continue;  // Refused by the kernel: draw again next pass.
      window.send_s += Seconds(c, d);
      ++window.pulls;
      p.awaiting = true;
      p.sent = c;
      p.seq_before = p.last_seq;
      p.heard = 0;
      p.pull_id = traced ? spans->NextId() : 0;
      if (p.pull_id != 0) {
        spans->Add("client.SendPull", c, d, p.pull_id, p.pull_id);
      }
    }
  }
  for (const std::unique_ptr<Peer>& p : load->peers) {
    if (p->awaiting) ++load->in_flight_at_end;
  }
}

/// BYE -> STATS for every peer while the server thread still polls, then
/// stops the thread and closes the serving socket.
std::vector<PeerReconcile> Teardown(ServerSide* s, LoadSide* load) {
  std::vector<PeerReconcile> out;
  for (std::unique_ptr<Peer>& p : load->peers) {
    PeerReconcile r;
    r.client_id = p->id;
    r.got_stats = p->channel.Goodbye(&r.stats, kGoodbyeTimeoutMs);
    r.client = p->channel.counters();
    out.push_back(r);
  }
  s->mode.store(kExit, std::memory_order_release);
  if (s->thread.joinable()) s->thread.join();
  s->transport.Shutdown("complete");
  return out;
}

/// FastRate over the busy windows [first, last) of `f(window)`.
template <typename F>
double WindowFastRate(const std::vector<ServeWindow>& windows,
                      std::size_t first, std::size_t last, F f) {
  std::vector<double> v;
  for (std::size_t i = first; i < last && i < windows.size(); ++i) {
    v.push_back(f(windows[i]));
  }
  return FastRate(std::move(v), kFastQuantile);
}

/// Concatenation of `field` over windows [first, last).
template <typename W>
std::vector<double> Pool(const std::vector<W>& windows, std::size_t first,
                         std::size_t last, std::vector<double> W::*field) {
  std::vector<double> v;
  for (std::size_t i = first; i < last && i < windows.size(); ++i) {
    v.insert(v.end(), (windows[i].*field).begin(), (windows[i].*field).end());
  }
  return v;
}

double TailValue(std::vector<double> v, double q) {
  return TailPercentile(&v, q).value;
}

double KernelRate(const ServeWindow& w) {
  return Ratio(static_cast<double>(w.slots), w.tick_s);
}

double Capacity(const ServeWindow& w) {
  return Ratio(static_cast<double>(w.slots), w.tick_s + w.poll_s);
}

/// Sums of the server windows [first, last) (lag samples not copied).
ServeWindow SumWindows(const std::vector<ServeWindow>& windows,
                       std::size_t first, std::size_t last) {
  ServeWindow total;
  for (std::size_t i = first; i < last && i < windows.size(); ++i) {
    total.slots += windows[i].slots;
    total.tick_s += windows[i].tick_s;
    total.poll_s += windows[i].poll_s;
    total.polled += windows[i].polled;
  }
  return total;
}

/// What every set-up trial of a run shares.
struct ServeSetup {
  core::SystemConfig config;
  std::shared_ptr<const bdisk::broadcast::BroadcastProgram> program;
  transport::DatagramServerOptions server_options;
  std::string socket_dir;
  std::vector<int> serve_cpu;
};

struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> bind_s;
  std::vector<double> connect_s;  // One per handshake.
};

/// One set-up: a fresh session and serve thread, then the timed bind and
/// four HELLO -> WELCOME handshakes. Returns an error, empty on success.
std::string SetUpTrial(const ServeSetup& setup, int trial,
                       bdisk::sim::Rng* seeds, SpanRecorder* spans,
                       std::unique_ptr<ServerSide>* session, LoadSide* load,
                       SetupTimes* times) {
  *session = std::make_unique<ServerSide>(setup.config, setup.program);
  ServerSide* s = session->get();
  s->thread = std::thread(ServeLoop, s, setup.serve_cpu);
  *load = LoadSide{};
  for (int i = 0; i < kPeers; ++i) {
    load->peers.push_back(std::make_unique<Peer>());
    Peer& peer = *load->peers.back();
    char id[16];
    std::snprintf(id, sizeof(id), "p%d", i);
    peer.id = id;
    peer.rng = bdisk::sim::Rng(seeds->Next());
  }
  std::string error;
  const std::uint64_t parent = spans != nullptr ? spans->NextId() : 0;
  const Clock::time_point t0 = Clock::now();
  const bool bound =
      s->transport.Bind(setup.server_options, &s->server, &error);
  const Clock::time_point t1 = Clock::now();
  if (!bound) return "bind " + setup.server_options.socket_path + ": " + error;
  s->bound.store(true, std::memory_order_release);
  if (spans != nullptr) spans->Add("transport.Bind", t0, t1, parent);
  times->bind_s.push_back(Seconds(t0, t1));
  for (std::unique_ptr<Peer>& p : load->peers) {
    transport::DatagramClientOptions client_options;
    client_options.server_path = setup.server_options.socket_path;
    client_options.client_id = p->id;
    client_options.socket_dir = setup.socket_dir;
    const Clock::time_point c0 = Clock::now();
    const bool connected =
        p->channel.Connect(client_options, &p->rng, &error);
    const Clock::time_point c1 = Clock::now();
    if (!connected) {
      Teardown(s, load);
      return "connect " + p->id + ": " + error;
    }
    if (spans != nullptr) spans->Add("transport.Connect", c0, c1, parent);
    times->connect_s.push_back(Seconds(c0, c1));
  }
  const Clock::time_point t2 = Clock::now();
  if (spans != nullptr) spans->Add("setup", t0, t2, 0, 0, trial, parent);
  times->setup_s.push_back(Seconds(t0, t2));
  return "";
}

/// The end-to-end values, from the untraced half of the session, and the
/// human-readable session summary.
void ReportEndToEnd(const ServerSide& s, const LoadSide& load,
                    const SetupTimes& times, Outcome* out) {
  const std::size_t untraced = s.traced_from / kWindowSlots;
  const std::size_t untraced_busy = s.traced_from / kBusyWindowSlots;
  std::uint64_t answered = 0;
  for (const LoadWindow& w : load.windows) {
    answered += w.rtt_us.size();
    out->failed += w.timed_out;
  }
  out->attempted = answered + out->failed;
  out->values["setup_s"] = FastTime(times.setup_s, kFastQuantile);
  out->values["peak_rss_mb"] = PeakRssMiB();
  out->values["sim_slots_per_s"] =
      WindowFastRate(s.windows, 0, untraced_busy, KernelRate);
  out->values["serve_capacity_slots_per_s"] =
      WindowFastRate(s.windows, 0, untraced_busy, Capacity);
  // RTT percentiles per window, over the windows that answered enough
  // pulls for a p99 (a window spoiled by a stall may not have).
  std::vector<double> p50s, p99s;
  std::size_t fewest = SIZE_MAX;
  for (std::size_t i = 0; i < untraced; ++i) {
    const std::vector<double>& w = load.windows[i].rtt_us;
    fewest = std::min(fewest, w.size());
    if (SupportedQuantile(w.size(), 0.99) < 0.99) continue;
    p50s.push_back(TailValue(w, 0.50));
    p99s.push_back(TailValue(w, 0.99));
  }
  if (2 * p99s.size() < untraced) {
    out->Fail("only " + std::to_string(p99s.size()) + " of " +
              std::to_string(untraced) +
              " windows answered enough pulls for a p99 RTT");
  }
  out->values["pull_rtt_p50_us"] = Median(p50s);
  out->values["pull_rtt_p99_us"] = Median(p99s);

  char line[240];
  std::snprintf(line, sizeof(line),
                "pull RTT: median over %zu of %zu windows of p50 %.6g us, "
                "p99 %.6g us (fewest samples in a window: %zu)",
                p99s.size(), untraced, out->values["pull_rtt_p50_us"],
                out->values["pull_rtt_p99_us"], fewest);
  out->Note(line);
  std::vector<double> rtt =
      Pool(load.windows, 0, untraced, &LoadWindow::rtt_us);
  out->Note(DescribeTail("pooled pull RTT", TailPercentile(&rtt, 0.50), "us"));
  out->Note(DescribeTail("pooled pull RTT", TailPercentile(&rtt, 0.99), "us"));
  const ServeWindow total = SumWindows(s.windows, 0, untraced_busy);
  std::vector<double> capacity;
  for (std::size_t i = 0; i < untraced_busy; ++i) {
    capacity.push_back(Capacity(s.windows[i]));
  }
  std::snprintf(line, sizeof(line),
                "capacity slots/s over %zu busy windows of %llu slots: "
                "median %.6g, p%.0f %.6g (reported)",
                capacity.size(), static_cast<unsigned long long>(
                                     kBusyWindowSlots),
                Median(capacity), kFastQuantile * 100.0,
                out->values["serve_capacity_slots_per_s"]);
  out->Note(line);
  std::snprintf(line, sizeof(line),
                "session: %llu slots paced, %llu pulls answered, %llu timed "
                "out, %llu in flight at the end; untraced busy %.4f of "
                "%.4f s",
                static_cast<unsigned long long>(s.slots_to_pace),
                static_cast<unsigned long long>(answered),
                static_cast<unsigned long long>(out->failed),
                static_cast<unsigned long long>(load.in_flight_at_end),
                total.tick_s + total.poll_s,
                Seconds(s.pace_start, s.untraced_end));
  out->Note(line);
  const transport::TransportCounters& c = s.transport.counters();
  std::snprintf(line, sizeof(line),
                "wire: slots_tx=%llu drop_backpressure=%llu "
                "drop_dead_peer=%llu pulls_rx=%llu malformed_rx=%llu",
                static_cast<unsigned long long>(c.slots_tx),
                static_cast<unsigned long long>(c.drop_backpressure),
                static_cast<unsigned long long>(c.drop_dead_peer),
                static_cast<unsigned long long>(c.pulls_rx),
                static_cast<unsigned long long>(c.malformed_rx));
  out->Note(line);
}

/// The traced run's per-layer values: timings from the untraced windows,
/// prof.* from the traced ones, counts over the whole session.
void ReportPerLayer(const ServerSide& s, const LoadSide& load,
                    const SetupTimes& times,
                    const bdisk::obs::PhaseProfiler& profiler, Outcome* out) {
  const std::size_t untraced = s.traced_from / kWindowSlots;
  const std::size_t untraced_busy = s.traced_from / kBusyWindowSlots;
  const bdisk::server::BroadcastServer& server = s.server;
  const bdisk::server::PullQueue& queue = server.queue();
  const transport::TransportCounters& c = s.transport.counters();
  const double total_slots = static_cast<double>(server.TotalSlots());
  const double submitted = static_cast<double>(queue.SubmittedCount());
  const double traced_slots =
      static_cast<double>(s.slots_to_pace - s.traced_from);
  const ServeWindow total = SumWindows(s.windows, 0, untraced_busy);
  LoadWindow load_total;
  for (std::size_t i = 0; i < untraced; ++i) {
    load_total.datagrams += load.windows[i].datagrams;
    load_total.recv_s += load.windows[i].recv_s;
    load_total.pulls += load.windows[i].pulls;
    load_total.send_s += load.windows[i].send_s;
  }
  const std::vector<double> wait =
      Pool(load.windows, 0, untraced, &LoadWindow::wait_slots);
  const std::vector<double> lag =
      Pool(s.windows, 0, untraced_busy, &ServeWindow::lag_us);
  std::map<std::string, double>& v = out->values;
  // A layer this workload never enters (core, VC, MC, obs) reports 0.
  for (const MetricSpec& spec : PerLayerMetrics()) v[spec.name] = 0.0;
  v["sim.events_per_slot"] =
      Ratio(static_cast<double>(s.simulator.EventsExecuted()), total_slots);
  v["sim.slots_per_span"] =
      Ratio(total_slots, static_cast<double>(s.simulator.PeriodicSpans()));
  v["sim.heap_high_water"] = static_cast<double>(s.simulator.HeapHighWater());
  v["client.rtt_samples"] = static_cast<double>(
      Pool(load.windows, 0, untraced, &LoadWindow::rtt_us).size());
  v["server.queue_accept_ratio"] =
      Ratio(static_cast<double>(queue.AcceptedCount()), submitted);
  v["server.queue_coalesce_ratio"] =
      Ratio(static_cast<double>(queue.CoalescedCount()), submitted);
  v["server.queue_drop_ratio"] =
      Ratio(static_cast<double>(queue.DroppedCount()), submitted);
  v["server.pull_slot_frac"] =
      Ratio(static_cast<double>(server.PullSlots()), total_slots);
  v["server.pull_wait_slots_p50"] = TailValue(wait, 0.50);
  v["server.pull_wait_slots_p99"] = TailValue(wait, 0.99);
  v["prof.kernel.span.self_ns_per_slot"] =
      Ratio(profiler.EstSelfNs(Phase::kKernelSpan), traced_slots);
  v["prof.queue.pop.ns_per_op"] = profiler.NsPerOp(Phase::kQueuePop);
  v["prof.queue.schedule.ns_per_op"] = profiler.NsPerOp(Phase::kQueueSchedule);
  v["prof.server.queue.ns_per_op"] = profiler.NsPerOp(Phase::kServerQueue);
  v["prof.server.mux.ns_per_op"] = profiler.NsPerOp(Phase::kServerMux);
  v["prof.server.slot.self_ns_per_slot"] =
      Ratio(profiler.EstSelfNs(Phase::kServerSlot), traced_slots);
  v["transport.bind_s"] = FastTime(times.bind_s, kFastQuantile);
  v["transport.connect_s"] = FastTime(times.connect_s, kFastQuantile);
  v["transport.tick_us"] =
      Ratio(total.tick_s * 1e6, static_cast<double>(total.slots));
  v["transport.poll_us_per_datagram"] =
      Ratio(total.poll_s * 1e6, static_cast<double>(total.polled));
  v["transport.slot_lag_p50_us"] = TailValue(lag, 0.50);
  v["transport.slot_lag_p99_us"] = TailValue(lag, 0.99);
  v["transport.serve_idle_frac"] =
      1.0 - Ratio(total.tick_s + total.poll_s,
                  Seconds(s.pace_start, s.untraced_end));
  v["transport.peer_recv_us_per_datagram"] =
      Ratio(load_total.recv_s * 1e6, static_cast<double>(load_total.datagrams));
  v["transport.peer_send_us_per_pull"] =
      Ratio(load_total.send_s * 1e6, static_cast<double>(load_total.pulls));
  v["transport.drop_ratio"] =
      Ratio(static_cast<double>(c.drop_backpressure + c.drop_dead_peer),
            total_slots * kPeers);
  v["transport.pulls_rx"] = static_cast<double>(c.pulls_rx);
  v["transport.malformed_rx"] = static_cast<double>(c.malformed_rx);
  const double traced_capacity =
      WindowFastRate(s.windows, untraced_busy, s.windows.size(), Capacity);
  v["trace.overhead_frac"] =
      1.0 - Ratio(traced_capacity, v["serve_capacity_slots_per_s"]);
  char line[160];
  std::snprintf(line, sizeof(line),
                "tracing overhead: %.4f (traced %.0f vs untraced %.0f "
                "capacity slots/s)",
                v["trace.overhead_frac"], traced_capacity,
                v["serve_capacity_slots_per_s"]);
  out->Note(line);
}

/// Adds each traced pull's answering slot (the server tick that sent its
/// seq) to `answer_spans`, then writes the spans and the profiler's trace.
void WriteServeTrace(const std::string& trace_dir, Clock::time_point epoch,
                     const std::vector<Answer>& answers,
                     const SpanRecorder& main_spans,
                     const SpanRecorder& server_spans,
                     const SpanRecorder& load_spans,
                     SpanRecorder* answer_spans,
                     bdisk::obs::PhaseProfiler* profiler, Outcome* out) {
  std::unordered_map<std::int64_t, const Span*> tick_by_seq;
  for (const Span& span : server_spans.spans()) {
    if (span.arg >= 0 && std::string_view(span.name) == "sim.RunUntil") {
      tick_by_seq[span.arg] = &span;
    }
  }
  for (const Answer& answer : answers) {
    const auto it = tick_by_seq.find(answer.seq);
    if (it == tick_by_seq.end()) continue;
    answer_spans->Add("server.answer_slot", it->second->start,
                      it->second->end, answer.pull_id, answer.pull_id,
                      answer.seq);
  }
  const std::string base = trace_dir + "/serve_wire";
  if (!WriteChromeTrace(base + ".spans.json", epoch,
                        {&main_spans, &server_spans, &load_spans,
                         answer_spans}) ||
      !WriteFile(base + ".prof.json", profiler->ToChromeTrace(nullptr))) {
    out->Fail("cannot write trace files under " + trace_dir);
  } else {
    out->Note("trace: " + base + ".spans.json, " + base + ".prof.json");
  }
}

}  // namespace

Outcome RunServeWorkload(const Options& options) {
  Outcome out;
  ServeSetup setup;
  setup.config.seed = options.seed;
  setup.program = std::make_shared<const bdisk::broadcast::BroadcastProgram>(
      core::ProgramForConfig(setup.config));
  setup.server_options.socket_path = options.socket_dir + "/srv";
  setup.server_options.db_size = setup.config.server_db_size;
  setup.server_options.cycle_len = setup.program->Length();
  setup.server_options.slot_us =
      static_cast<std::uint32_t>(kSlotPace.count() / 1000);
  setup.socket_dir = options.socket_dir;
  const bdisk::workload::AccessGenerator gen(
      core::CanonicalPatternForConfig(setup.config));
  bdisk::sim::Rng seeds(options.seed);

  SpanRecorder main_spans(1, "main", std::size_t{1} << 10);
  SpanRecorder server_spans(2, "serve thread", std::size_t{1} << 15);
  SpanRecorder load_spans(3, "load thread", std::size_t{1} << 15);
  SpanRecorder answer_spans(4, "answering slots", std::size_t{1} << 13);
  const Clock::time_point epoch = Clock::now();

  // Serve and load threads on the last two allowed CPUs and the main thread
  // on the rest, when at least one is left for it.
  std::vector<int> main_cpus = AllowedCpus();
  std::vector<int> load_cpu;
  if (main_cpus.size() >= 3) {
    setup.serve_cpu = {main_cpus.back()};
    main_cpus.pop_back();
    load_cpu = {main_cpus.back()};
    main_cpus.pop_back();
    PinSelf(main_cpus);
    out.Note("threads: serve on cpu " + std::to_string(setup.serve_cpu[0]) +
             ", load on cpu " + std::to_string(load_cpu[0]) +
             ", main on the other " + std::to_string(main_cpus.size()));
  } else {
    out.Note("threads: unpinned (fewer than 3 CPUs allowed)");
  }

  SetupTimes times;
  std::unique_ptr<ServerSide> s;
  LoadSide load;
  // Set-up trials; with `keep_last` the last session stays up. False
  // (with `out` failed) when a socket call fails.
  const auto set_up = [&](int first, bool keep_last) {
    for (int trial = first; trial < first + kSetupTrials; ++trial) {
      const std::string error = SetUpTrial(
          setup, trial, &seeds, options.trace ? &main_spans : nullptr, &s,
          &load, &times);
      if (!error.empty()) {
        out.Fail(error);
        return false;
      }
      if (keep_last && trial + 1 == first + kSetupTrials) break;
      for (const std::string& p : CheckServeReconcile(
               Teardown(s.get(), &load), s->transport.counters())) {
        out.Fail("setup trial " + std::to_string(trial) + ": " + p);
      }
    }
    return true;
  };
  if (!set_up(0, /*keep_last=*/true)) return out;

  // The measured session: pace for the run's seconds; the traced run
  // profiles and records spans in the second half only, so the first half
  // is its untraced twin.
  const std::uint64_t timeout_slots =
      2 * static_cast<std::uint64_t>(
              load.peers.front()->channel.welcome().cycle_len);
  bdisk::obs::PhaseProfiler profiler;
  const std::size_t windows = static_cast<std::size_t>(options.seconds * 2);
  s->slots_to_pace = windows * kWindowSlots;
  s->traced_from = options.trace ? s->slots_to_pace / 2 : s->slots_to_pace;
  s->profiler = options.trace ? &profiler : nullptr;
  s->spans = options.trace ? &server_spans : nullptr;
  s->windows.resize(s->slots_to_pace / kBusyWindowSlots);
  load.windows.resize(windows);
  // Sample buffers sized up front: no reallocation mid-session, and the
  // resident set grows with the samples taken rather than in doublings.
  for (ServeWindow& w : s->windows) w.lag_us.reserve(kBusyWindowSlots);
  for (std::size_t i = 0; i < windows; ++i) {
    load.windows[i].rtt_us.reserve(kWindowSlots);
    load.windows[i].wait_slots.reserve(kWindowSlots);
  }
  s->pace_start = Clock::now() + std::chrono::milliseconds(2);
  s->mode.store(kPace, std::memory_order_release);
  std::thread load_thread(LoadLoop, &load, s.get(), &gen, timeout_slots,
                          options.trace ? &load_spans : nullptr, load_cpu);
  load_thread.join();
  while (!s->pacing_done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  s->mode.store(kDrain, std::memory_order_release);
  const std::vector<std::string> problems =
      CheckServeReconcile(Teardown(s.get(), &load), s->transport.counters());
  for (const std::string& p : problems) out.Fail(p);
  if (problems.empty()) {
    out.Note("reconcile: OK for " + std::to_string(load.peers.size()) +
             " peers (pulls_rx == pulls_sent, slots_tx_epoch == "
             "slots_rx_epoch, malformed_rx == 0)");
  }

  // Sessions stay owned until reported on; the trials after the session
  // replace `s` and `load`.
  std::unique_ptr<ServerSide> session = std::move(s);
  LoadSide session_load = std::move(load);
  if (!set_up(kSetupTrials, /*keep_last=*/false)) return out;
  s = std::move(session);
  load = std::move(session_load);
  ReportEndToEnd(*s, load, times, &out);
  if (options.trace) {
    ReportPerLayer(*s, load, times, profiler, &out);
    if (!options.trace_dir.empty()) {
      WriteServeTrace(options.trace_dir, epoch, load.answers, main_spans,
                      server_spans, load_spans, &answer_spans, &profiler,
                      &out);
    }
  }
  return out;
}

}  // namespace perfbench
