// bdisk_serve — the broadcast server on a real wire.
//
// Runs the same event kernel the simulations use, but paced by the wall
// clock: one broadcast slot every --slot-us microseconds, each delivered
// slot fanned out as one bdisk-wire-v1 line written to each connected
// client's downlink pipe. The handshake and the pull requests travel as
// datagrams on a nonblocking AF_UNIX socket; PULLs enter the very pull
// queue the paper's MUX serves.
// Examples:
//
//   bdisk_serve --socket /tmp/bd.sock
//   bdisk_serve --socket bd.sock --slot-us 200 --max-slots 5000
//       --set server_db_size=100 --set disk_sizes=10,40,50
//   bdisk_serve --socket bd.sock --frames unix:/tmp/frames.sock   # bdisk_top
//
// Robustness semantics (ROBUSTNESS.md, Transport):
//   - heartbeat deadlines: any datagram from a peer refreshes it; peers
//     silent past --heartbeat-s are evicted;
//   - drop-newest backpressure: a slot line the kernel refuses is dropped
//     and counted by cause (transport.drop_*), never retried, never
//     blocking the slot cadence;
//   - one downlink pipe per peer: each HELLO's WELCOME hands the peer the
//     read end of a fresh pipe, and every slot reaches it as one write();
//     a reconnect gets a new pipe and restarts the slot epoch — counters
//     reconcile across client crashes, and a client that dies costs
//     drop_dead_peer counts, never the server (SIGPIPE is ignored);
//   - graceful drain: SIGTERM/SIGINT sends FIN to every peer, then exits
//     with a summary (and --metrics-json snapshot).
//
// Transport-level faults come from the config's fault.* plan: slot_loss /
// slot_corruption / request_loss act on the wire (judged by a dedicated
// salted stream), while the remaining plan (outages, degraded mode,
// request_delay) stays inside the server — each fault applies exactly
// once.

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_numbers.h"
#include "core/config_io.h"
#include "core/provenance.h"
#include "core/system.h"
#include "fault/fault_injector.h"
#include "obs/frame_sink.h"
#include "obs/metrics.h"
#include "obs/telemetry_bus.h"
#include "obs/windowed_collector.h"
#include "server/broadcast_server.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "transport/datagram_transport.h"

namespace {

// Salts the wire-fault stream away from the seed and every other salted
// stream (noise/fault/retry in core::System) — serve-mode wire faults are
// deterministic per seed and perturb nothing else.
constexpr std::uint64_t kTransportSalt = 0x7247'A11C'5EEDULL;

// Descriptors kept back from --max-peers: stdio, the serving socket, the
// pipe of a HELLO in progress, the frame sink and the metrics file, with
// room to spare.
constexpr std::uint64_t kReservedFds = 16;

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

void PrintUsage() {
  std::printf(
      "usage: bdisk_serve --socket PATH [options]\n"
      "  --socket PATH      serving AF_UNIX datagram socket (required)\n"
      "  --slot-us N        wall microseconds per broadcast slot\n"
      "                     (default 1000)\n"
      "  --max-slots N      stop after N slots (default 0: until SIGTERM)\n"
      "  --heartbeat-s S    evict peers silent for S wall seconds\n"
      "                     (default 5; 0 disables eviction)\n"
      "  --max-peers N      refuse HELLOs beyond N peers (default 64;\n"
      "                     each peer holds one pipe descriptor)\n"
      "  --set KEY=VALUE    override one config key (repeatable)\n"
      "  --config FILE      load key=value config file\n"
      "  --seed N           root RNG seed\n"
      "  --frames DEST      stream live bdisk-frame-v1 frames (\"-\" stdout,\n"
      "                     \"unix:PATH\" datagram, else file)\n"
      "  --metrics-json F   write a bdisk-metrics-v1 snapshot on exit\n"
      "  --help             this message\n"
      "SIGTERM/SIGINT drains gracefully: FIN to every peer, summary, exit "
      "0.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdisk;

  core::SystemConfig config;
  std::string socket_path;
  std::string frames_dest;
  std::string metrics_json;
  std::uint32_t slot_us = 1000;
  std::uint64_t max_slots = 0;
  double heartbeat_s = 5.0;
  std::uint32_t max_peers = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto positive_u32 = [&](const char* flag) {
      return static_cast<std::uint32_t>(
          cli::UnsignedFlag(flag, next_value(flag), 1, UINT32_MAX));
    };
    if (arg == "--socket") {
      socket_path = next_value("--socket");
    } else if (arg == "--slot-us") {
      slot_us = positive_u32("--slot-us");
    } else if (arg == "--max-slots") {
      max_slots = cli::UnsignedFlag("--max-slots", next_value("--max-slots"),
                                    0, UINT64_MAX);
    } else if (arg == "--heartbeat-s") {
      heartbeat_s =
          cli::SecondsFlag("--heartbeat-s", next_value("--heartbeat-s"));
    } else if (arg == "--max-peers") {
      max_peers = positive_u32("--max-peers");
    } else if (arg == "--set") {
      const std::string kv = next_value("--set");
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--set wants KEY=VALUE\n");
        return 2;
      }
      const std::string error = core::ApplyConfigOption(
          kv.substr(0, eq), kv.substr(eq + 1), &config);
      if (!error.empty()) {
        std::fprintf(stderr, "--set %s: %s\n", kv.c_str(), error.c_str());
        return 2;
      }
    } else if (arg == "--config") {
      const char* path = next_value("--config");
      std::ifstream file(path);
      if (!file) {
        std::fprintf(stderr, "cannot read %s\n", path);
        return 2;
      }
      std::stringstream body;
      body << file.rdbuf();
      const std::string error = core::ParseConfigText(body.str(), &config);
      if (!error.empty()) {
        std::fprintf(stderr, "%s: %s\n", path, error.c_str());
        return 2;
      }
    } else if (arg == "--seed") {
      config.seed =
          cli::UnsignedFlag("--seed", next_value("--seed"), 0, UINT64_MAX);
    } else if (arg == "--frames") {
      frames_dest = next_value("--frames");
    } else if (arg == "--metrics-json") {
      metrics_json = next_value("--metrics-json");
    } else if (arg == "--help") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    PrintUsage();
    return 2;
  }
  {
    // Each peer holds the write end of its pipe for its lifetime.
    rlimit nofile{};
    if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
        nofile.rlim_cur != RLIM_INFINITY &&
        max_peers + kReservedFds > nofile.rlim_cur) {
      std::fprintf(stderr,
                   "--max-peers %u: each peer holds a pipe, and the "
                   "RLIMIT_NOFILE soft limit of %llu leaves room for at "
                   "most %llu peers\n",
                   max_peers, static_cast<unsigned long long>(nofile.rlim_cur),
                   static_cast<unsigned long long>(
                       nofile.rlim_cur > kReservedFds
                           ? nofile.rlim_cur - kReservedFds
                           : 0));
      return 2;
    }
  }
  {
    const std::string error = config.Validate();
    if (!error.empty()) {
      std::fprintf(stderr, "invalid config: %s\n", error.c_str());
      return 2;
    }
  }

  // The serve kernel: the exact components a simulated System wires, minus
  // the in-process clients — real peers take their place on the wire. The
  // server RNG is the root's first Split(), matching System's stream
  // order, so a serve-mode MUX trajectory equals the sim's for the same
  // seed and request arrivals.
  sim::Simulator simulator;
  sim::Rng root(config.seed);
  sim::Rng server_rng = root.Split();
  server::BroadcastServer server(&simulator, core::ProgramForConfig(config),
                                 config.EffectivePullBw(),
                                 config.server_queue_size, server_rng);

  // Split the fault plan: wire-level rates feed the transport injector
  // (its own salted stream), everything else stays server-side.
  fault::FaultPlan wire_plan;
  wire_plan.slot_loss = config.fault.slot_loss;
  wire_plan.slot_corruption = config.fault.slot_corruption;
  wire_plan.request_loss = config.fault.request_loss;
  std::optional<fault::FaultInjector> wire_injector;
  if (wire_plan.Enabled()) {
    wire_injector.emplace(wire_plan, sim::Rng(config.seed ^ kTransportSalt));
  }
  fault::FaultPlan server_plan = config.fault;
  server_plan.slot_loss = 0.0;
  server_plan.slot_corruption = 0.0;
  server_plan.request_loss = 0.0;
  std::optional<fault::FaultInjector> server_injector;
  if (server_plan.Enabled()) {
    server_injector.emplace(server_plan,
                            sim::Rng(config.seed ^ 0xFA017'1A7EC7EDULL));
    server.SetFaultInjector(&*server_injector);
  }

  transport::DatagramServerOptions options;
  options.socket_path = socket_path;
  options.heartbeat_deadline = heartbeat_s;
  options.max_peers = max_peers;
  options.db_size = config.server_db_size;
  options.cycle_len = server.program().Length();
  options.slot_us = slot_us;
  options.injector = wire_injector ? &*wire_injector : nullptr;

  transport::DatagramServerTransport transport;
  {
    std::string error;
    if (!transport.Bind(options, &server, &error)) {
      std::fprintf(stderr, "bdisk_serve: %s\n", error.c_str());
      return 2;
    }
  }

  const auto probe = [&] {
    std::vector<obs::CounterSample> samples;
    samples.reserve(21);
    const server::PullQueue& queue = server.queue();
    samples.push_back({"server.slots_push", server.PushSlots()});
    samples.push_back({"server.slots_pull", server.PullSlots()});
    samples.push_back({"server.slots_idle", server.IdleSlots()});
    samples.push_back({"server.queue.submitted", queue.SubmittedCount()});
    samples.push_back({"server.queue.accepted", queue.AcceptedCount()});
    samples.push_back({"server.queue.coalesced", queue.CoalescedCount()});
    samples.push_back({"server.queue.dropped", queue.DroppedCount()});
    transport.AppendCounterSamples(&samples);
    return samples;
  };

  // Live telemetry rides the same bus as the simulations; the probe adds
  // the transport.* counters (serve-mode only — sim snapshots never carry
  // them). Windows close on sim time, i.e. every obs_window slots.
  std::optional<obs::WindowedCollector> collector;
  std::optional<obs::TelemetryBus> bus;
  if (!frames_dest.empty()) {
    std::string sink_error;
    std::unique_ptr<obs::FrameSink> sink =
        obs::MakeFrameSink(frames_dest, &sink_error);
    if (sink == nullptr) {
      std::fprintf(stderr, "--frames %s: %s\n", frames_dest.c_str(),
                   sink_error.c_str());
      return 2;
    }
    collector.emplace(config.obs_window);
    server.SetWindowedCollector(&*collector);
    bus.emplace(std::move(sink));
    bus->SetProbe(probe);
    collector->SetTelemetryBus(&*bus);
    server.SetTelemetryBus(&*bus);
    bus->EmitRunStart(simulator.Now(),
                      {{"tool", "bdisk_serve"},
                       {"transport", transport.Describe()},
                       {"seed", std::to_string(config.seed)},
                       {"db_size", std::to_string(config.server_db_size)},
                       {"slot_us", std::to_string(slot_us)}});
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);

  std::fprintf(stderr,
               "bdisk_serve: listening on %s (db=%u cycle=%u slot=%lluus "
               "heartbeat=%.3gs max_peers=%llu build=%s rev=%s)\n",
               socket_path.c_str(), config.server_db_size,
               server.program().Length(),
               static_cast<unsigned long long>(slot_us), heartbeat_s,
               static_cast<unsigned long long>(max_peers), core::BuildType(),
               core::GitRev());

  const auto start = std::chrono::steady_clock::now();
  const auto wall_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // The serve loop: between slot deadlines, block on the socket (bounded
  // so signals are honored) and drain requests; at each deadline, run the
  // kernel one slot forward — the slot boundary event fires and the
  // transport (a BroadcastListener) puts the slot on the wire.
  std::uint64_t slots_done = 0;
  while (g_stop == 0 && (max_slots == 0 || slots_done < max_slots)) {
    const double deadline =
        static_cast<double>(slots_done + 1) * static_cast<double>(slot_us) *
        1e-6;
    for (;;) {
      if (g_stop != 0) break;
      const double remaining = deadline - wall_s();
      if (remaining <= 0.0) break;
      int timeout_ms = static_cast<int>(remaining * 1000.0);
      if (timeout_ms > 50) timeout_ms = 50;
      transport.WaitReadable(timeout_ms);
      transport.Poll(wall_s());
    }
    if (g_stop != 0) break;
    simulator.RunUntil(static_cast<double>(slots_done + 1));
    ++slots_done;
    transport.EvictDeadPeers(wall_s());
  }

  // Drain: answer any last BYEs, then say goodbye to whoever remains.
  transport.Poll(wall_s());
  transport.Shutdown(g_stop != 0 ? "drain" : "complete");

  if (collector) collector->Finish();
  if (bus) {
    bus->EmitRunEnd(simulator.Now());
    if (bus->FramesDropped() > 0) {
      std::fprintf(stderr, "telemetry: %llu of %llu frames dropped\n",
                   static_cast<unsigned long long>(bus->FramesDropped()),
                   static_cast<unsigned long long>(bus->FramesEmitted()));
    }
  }

  if (!metrics_json.empty()) {
    obs::MetricsRegistry registry;
    const auto counter = [&registry](const char* name, std::uint64_t v) {
      registry.GetCounter(name)->Set(v);
    };
    const server::PullQueue& queue = server.queue();
    counter("server.slots_total", server.TotalSlots());
    counter("server.slots_push", server.PushSlots());
    counter("server.slots_pull", server.PullSlots());
    counter("server.slots_idle", server.IdleSlots());
    counter("server.queue.submitted", queue.SubmittedCount());
    counter("server.queue.accepted", queue.AcceptedCount());
    counter("server.queue.coalesced", queue.CoalescedCount());
    counter("server.queue.dropped", queue.DroppedCount());
    transport.SnapshotMetrics(&registry);
    std::FILE* out = std::fopen(metrics_json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_json.c_str());
      return 2;
    }
    const std::string json = registry.ToJson();
    std::fwrite(json.data(), 1, json.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
  }

  const double elapsed = wall_s();
  const transport::TransportCounters& c = transport.counters();
  std::printf(
      "bdisk_serve: %llu slots in %.3fs (%.1f slots/s sustained)\n"
      "  peers: hellos=%llu reconnects=%llu evictions=%llu rejected=%llu\n"
      "  pulls: rx=%llu fault_dropped=%llu unknown_peer=%llu\n"
      "  slots: tx=%llu drop_backpressure=%llu drop_dead_peer=%llu "
      "drop_fault=%llu\n"
      "  datagrams: pings=%llu byes=%llu malformed=%llu\n",
      static_cast<unsigned long long>(slots_done), elapsed,
      elapsed > 0.0 ? static_cast<double>(slots_done) / elapsed : 0.0,
      static_cast<unsigned long long>(c.hellos),
      static_cast<unsigned long long>(c.reconnects),
      static_cast<unsigned long long>(c.evictions),
      static_cast<unsigned long long>(c.peers_rejected),
      static_cast<unsigned long long>(c.pulls_rx),
      static_cast<unsigned long long>(c.pulls_fault_dropped),
      static_cast<unsigned long long>(c.pulls_unknown_peer),
      static_cast<unsigned long long>(c.slots_tx),
      static_cast<unsigned long long>(c.drop_backpressure),
      static_cast<unsigned long long>(c.drop_dead_peer),
      static_cast<unsigned long long>(c.drop_fault),
      static_cast<unsigned long long>(c.pings_rx),
      static_cast<unsigned long long>(c.byes_rx),
      static_cast<unsigned long long>(c.malformed_rx));
  return 0;
}
