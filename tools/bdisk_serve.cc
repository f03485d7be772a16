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
//   - source rule: a peer is the address of its last accepted HELLO; a
//     PULL, PING or BYE in its name from another address is refused and
//     counted in transport.wrong_source_rx alone;
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
// The server is core::ServerStack, the one the simulator builds, so it
// reads the same config keys; a key that only an in-process client, the
// update generator or the flight recorder would read is refused (exit 2)
// when set. Transport-level faults come from the config's fault.* plan:
// slot_loss / slot_corruption / request_loss act on the wire (judged by a
// dedicated salted stream), while the remaining plan (outages, degraded
// mode, request_delay) stays inside the server — each fault applies
// exactly once.

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_config.h"
#include "cli_numbers.h"
#include "core/counter_table.h"
#include "core/provenance.h"
#include "core/server_stack.h"
#include "core/system.h"
#include "obs/frame_sink.h"
#include "obs/metrics.h"
#include "obs/telemetry_bus.h"
#include "obs/windowed_collector.h"
#include "server/broadcast_server.h"
#include "sim/simulator.h"
#include "transport/datagram_transport.h"
#include "write_output.h"

namespace {

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
      "                     (\"-\" stdout)\n"
      "  --help             this message\n"
      "SIGTERM/SIGINT drains gracefully: FIN to every peer, summary, exit "
      "0.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdisk;

  core::SystemConfig config;
  std::string socket_path;
  std::string metrics_json;
  std::uint32_t slot_us = 1000;
  std::uint64_t max_slots = 0;
  double heartbeat_s = 5.0;
  std::uint32_t max_peers = 64;

  const cli::ConfigAlias aliases[] = {{"--seed", "seed"},
                                      {"--frames", "frames"}};
  for (int i = 1; i < argc; ++i) {
    if (cli::ConfigFlag(argc, argv, &i, aliases, &config)) continue;
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
          cli::DoubleFlag("--heartbeat-s", next_value("--heartbeat-s"), 0.0);
    } else if (arg == "--max-peers") {
      max_peers = positive_u32("--max-peers");
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
    const std::string key = core::UnservedKey(config);
    if (!key.empty()) {
      std::fprintf(stderr,
                   "%s: bdisk_serve has no in-process clients, update "
                   "generator or flight recorder to read this key; leave it "
                   "at its default\n",
                   key.c_str());
      return 2;
    }
  }

  // The serve kernel: the ServerStack a simulated System is built on, with
  // real peers on the wire in place of the in-process clients. One builder
  // means one RNG stream order, one fault split and one set of salts, so a
  // serve-mode MUX trajectory equals the sim's for the same seed and
  // request arrivals; transport_test pins a scripted session of it.
  core::ServerStack stack(config, *core::BuildArtifacts(config),
                          core::ServerStack::Wire::kDatagram);
  server::BroadcastServer& server = stack.server();

  transport::DatagramServerOptions options;
  options.socket_path = socket_path;
  options.heartbeat_deadline = heartbeat_s;
  options.max_peers = max_peers;
  options.db_size = config.server_db_size;
  options.cycle_len = server.program().Length();
  options.slot_us = slot_us;
  options.injector = stack.wire_faults();

  transport::DatagramServerTransport transport;
  {
    std::string error;
    if (!transport.Bind(options, &server, &error)) {
      std::fprintf(stderr, "bdisk_serve: %s\n", error.c_str());
      return 2;
    }
  }

  // Snapshots and frames carry the server rows, the server-side fault.*
  // rows while such a plan is active, and transport.*.
  core::CounterSources sources = stack.counter_sources();
  sources.transport = &transport.counters();

  // Live telemetry rides the same bus as the simulations. Windows close on
  // sim time, i.e. every obs_window slots.
  std::optional<obs::WindowedCollector> collector;
  std::optional<obs::TelemetryBus> bus;
  if (!config.frames.empty()) {
    std::string sink_error;
    std::unique_ptr<obs::FrameSink> sink =
        obs::MakeFrameSink(config.frames, &sink_error);
    if (sink == nullptr) {
      std::fprintf(stderr, "--frames %s: %s\n", config.frames.c_str(),
                   sink_error.c_str());
      return 2;
    }
    collector.emplace(config.obs_window);
    server.SetWindowedCollector(&*collector);
    bus.emplace(std::move(sink));
    bus->SetProbe([&sources](std::vector<obs::CounterSample>* out) {
      core::ProbeCounters(sources, out);
    });
    collector->SetTelemetryBus(&*bus);
    server.SetTelemetryBus(&*bus);
    bus->EmitRunStart(stack.simulator().Now(),
                      {{"tool", "bdisk_serve"},
                       {"transport", "unix:" + socket_path},
                       {"seed", std::to_string(config.seed)},
                       {"db_size", std::to_string(config.server_db_size)},
                       {"slot_us", std::to_string(slot_us)}});
  }
  stack.Start();

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
    stack.simulator().RunUntil(static_cast<double>(slots_done + 1));
    ++slots_done;
    transport.EvictDeadPeers(wall_s());
  }

  // Drain: answer any last BYEs, then say goodbye to whoever remains.
  transport.Poll(wall_s());
  transport.Shutdown(g_stop != 0 ? "drain" : "complete");

  if (collector) collector->Finish();
  if (bus) {
    bus->EmitRunEnd(stack.simulator().Now());
    if (bus->FramesDropped() > 0) {
      std::fprintf(stderr, "telemetry: %llu of %llu frames dropped\n",
                   static_cast<unsigned long long>(bus->FramesDropped()),
                   static_cast<unsigned long long>(bus->FramesEmitted()));
    }
  }

  if (!metrics_json.empty()) {
    obs::MetricsRegistry registry;
    core::SnapshotCounters(sources, &registry);
    // Gauge, not counter: point-in-time, and kept out of the counter table
    // that frame-delta reconciliation sums over.
    registry.GetGauge("transport.peers")
        ->Set(static_cast<double>(transport.PeerCount()));
    if (!cli::WriteOutput(metrics_json, registry.ToJson())) return 2;
  }

  const double elapsed = wall_s();
  std::printf("bdisk_serve: %llu slots in %.3fs (%.1f slots/s sustained)\n",
              static_cast<unsigned long long>(slots_done), elapsed,
              elapsed > 0.0 ? static_cast<double>(slots_done) / elapsed : 0.0);
  for (const obs::CounterSample& sample :
       core::ProbeCounters({.transport = &transport.counters()})) {
    std::printf("  %s=%llu\n", sample.name,
                static_cast<unsigned long long>(sample.value));
  }
  return 0;
}
