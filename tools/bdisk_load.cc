// bdisk_load — bmeter-style load driver for a live bdisk_serve socket.
//
// Connects as one wire client, then runs closed-loop pull rounds: draw a
// page, send PULL, wait for any SLOT carrying that page (our pull's
// response, or a snooped push/pull — the broadcast medium answers either
// way), measure the wall round-trip, think, repeat. Retries ride the same
// bounded-exponential-backoff engine as the measured client's robust pull
// path. Examples:
//
//   bdisk_load --socket /tmp/bd.sock --rounds 200
//   bdisk_load --socket bd.sock --rounds 100 --restart-after 50 --reconcile
//   BDISK_BENCH_ALLOW_DEBUG=1 bdisk_load --socket bd.sock --report load.json
//
// --restart-after K crashes the connection (socket and downlink pipe
// dropped, no BYE — the transport-level peer-kill fault) after K completed
// rounds and reconnects under backoff on a fresh epoch path.
//
// --reconcile ends the run with the BYE -> STATS handshake and demands
// EXACT counter agreement with the server (STATS follows the last SLOT on
// the FIFO downlink pipe, which makes the cut consistent):
//   - server pulls_rx        == pulls the client's kernel accepted,
//   - server slots_tx_epoch  == slots received since the last WELCOME.
// Exits 1 on any mismatch — this is the drop-accounting gate the CI
// live-serve smoke runs after a mid-run kill/restart.

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_numbers.h"
#include "core/provenance.h"
#include "fault/backoff.h"
#include "sim/rng.h"
#include "transport/datagram_client.h"
#include "transport/wire.h"
#include "write_output.h"

namespace {

void PrintUsage() {
  std::printf(
      "usage: bdisk_load --socket PATH [options]\n"
      "  --socket PATH      bdisk_serve socket to drive (required)\n"
      "  --client-id ID     wire identity (default \"load\")\n"
      "  --dir DIR          directory for this client's reply sockets\n"
      "                     (default \".\")\n"
      "  --rounds N         pull round-trips to complete (default 100)\n"
      "  --think-ms N       pause between rounds (default 0)\n"
      "  --timeout-ms N     base per-pull timeout before a backoff retry\n"
      "                     (default 200)\n"
      "  --retries N        retries per round after the first pull\n"
      "                     (default 5)\n"
      "  --restart-after K  crash + reconnect after K completed rounds\n"
      "  --reconcile        BYE -> STATS exact accounting check (exit 1 on\n"
      "                     mismatch)\n"
      "  --seed N           page-draw / jitter RNG seed (default 42)\n"
      "  --report FILE      write a bdisk-load-v1 JSON report (\"-\" for\n"
      "                     stdout; requires an optimized build, or\n"
      "                     BDISK_BENCH_ALLOW_DEBUG=1)\n"
      "  --help             this message\n");
}

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdisk;

  std::string socket_path;
  std::string client_id = "load";
  std::string socket_dir = ".";
  std::string report_path;
  std::uint64_t rounds = 100;
  std::uint64_t think_ms = 0;
  std::uint64_t timeout_ms = 200;
  std::uint32_t retries = 5;
  std::uint64_t restart_after = 0;
  bool reconcile = false;
  std::uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](const char* flag, std::uint64_t lo,
                            std::uint64_t hi) {
      return cli::UnsignedFlag(flag, next_value(flag), lo, hi);
    };
    if (arg == "--socket") {
      socket_path = next_value("--socket");
    } else if (arg == "--client-id") {
      client_id = next_value("--client-id");
    } else if (arg == "--dir") {
      socket_dir = next_value("--dir");
    } else if (arg == "--rounds") {
      rounds = number("--rounds", 1, UINT64_MAX);
    } else if (arg == "--think-ms") {
      // A poll() timeout.
      think_ms = number("--think-ms", 0, INT_MAX);
    } else if (arg == "--timeout-ms") {
      // The jittered backoff cap, under 32x this, is a poll() timeout too.
      timeout_ms = number("--timeout-ms", 1, INT_MAX / 32);
    } else if (arg == "--retries") {
      retries = static_cast<std::uint32_t>(number("--retries", 0, UINT32_MAX));
    } else if (arg == "--restart-after") {
      restart_after = number("--restart-after", 0, UINT64_MAX);
    } else if (arg == "--reconcile") {
      reconcile = true;
    } else if (arg == "--seed") {
      seed = number("--seed", 0, UINT64_MAX);
    } else if (arg == "--report") {
      report_path = next_value("--report");
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
  if (!report_path.empty()) {
    // Reported numbers are throughput claims; gate them like the benches.
    core::RequireOptimizedBuild("bdisk_load");
  }

  sim::Rng rng(seed);
  transport::DatagramClientOptions options;
  options.server_path = socket_path;
  options.client_id = client_id;
  options.socket_dir = socket_dir;
  // Wall-second pacing: base = the pull timeout, capped at 16x.
  options.backoff.base = static_cast<double>(timeout_ms) * 1e-3;
  options.backoff.cap = options.backoff.base * 16.0;

  transport::DatagramClientChannel channel;
  {
    std::string error;
    if (!channel.Connect(options, &rng, &error)) {
      std::fprintf(stderr, "bdisk_load: %s\n", error.c_str());
      return 2;
    }
  }
  const std::uint32_t db_size = channel.welcome().db_size;
  if (db_size == 0) {
    std::fprintf(stderr, "bdisk_load: server advertised an empty database\n");
    return 2;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto wall_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t restarts = 0;
  std::vector<double> rtts_ms;
  rtts_ms.reserve(std::min<std::uint64_t>(rounds, 1 << 16));
  std::vector<transport::wire::Message> messages;

  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (restart_after > 0 && completed == restart_after && restarts == 0) {
      // The peer-kill/restart fault, from the client's side: the process
      // "dies" (socket gone, no BYE) and a fresh one reconnects under
      // backoff on a new epoch path. Counters survive in this harness the
      // way a restarted client's persistent tally would.
      channel.Crash();
      ++restarts;
      std::string error;
      if (!channel.Connect(options, &rng, &error)) {
        std::fprintf(stderr, "bdisk_load: reconnect failed: %s\n",
                     error.c_str());
        return 2;
      }
    }
    const broadcast::PageId page =
        static_cast<broadcast::PageId>(rng.NextBounded(db_size));
    const double t0 = wall_s();
    bool answered = false;
    // Counted without a bound check, so that --retries 4294967295 ends.
    for (std::uint32_t attempt = 0; !answered; ++attempt) {
      if (!channel.SendPull(page)) channel.SendPing();  // Keep liveness.
      const double deadline =
          wall_s() +
          fault::JitteredBackoffDelay(options.backoff, attempt, &rng);
      while (!answered && channel.Connected()) {
        const double remaining = deadline - wall_s();
        if (remaining <= 0.0) break;
        int step_ms = static_cast<int>(remaining * 1000.0);
        if (step_ms < 1) step_ms = 1;
        if (step_ms > 20) step_ms = 20;
        messages.clear();
        channel.PollMessages(step_ms, &messages);
        for (const transport::wire::Message& msg : messages) {
          if (msg.type == transport::wire::MsgType::kSlot &&
              msg.page == page) {
            answered = true;
          }
        }
      }
      if (!channel.Connected()) {
        std::fprintf(stderr,
                     "bdisk_load: server closed the channel mid-run\n");
        return 2;
      }
      if (attempt == retries) break;
    }
    if (answered) {
      ++completed;
      rtts_ms.push_back((wall_s() - t0) * 1000.0);
    } else {
      ++failed;
    }
    if (think_ms > 0) {
      messages.clear();
      channel.PollMessages(static_cast<int>(think_ms), nullptr);
    }
  }

  const double elapsed = wall_s();
  const transport::ClientCounters& c = channel.counters();

  bool reconcile_failed = false;
  if (reconcile) {
    transport::wire::PeerStats stats;
    if (!channel.Goodbye(&stats, /*timeout_ms=*/2000)) {
      std::fprintf(stderr, "reconcile: no STATS reply to BYE\n");
      reconcile_failed = true;
    } else {
      if (stats.pulls_rx != c.pulls_sent) {
        std::fprintf(stderr,
                     "reconcile: MISMATCH pulls: server rx=%llu != client "
                     "sent=%llu\n",
                     static_cast<unsigned long long>(stats.pulls_rx),
                     static_cast<unsigned long long>(c.pulls_sent));
        reconcile_failed = true;
      }
      if (stats.slots_tx_epoch != c.slots_rx_epoch) {
        std::fprintf(
            stderr,
            "reconcile: MISMATCH slots: server tx_epoch=%llu != client "
            "rx_epoch=%llu\n",
            static_cast<unsigned long long>(stats.slots_tx_epoch),
            static_cast<unsigned long long>(c.slots_rx_epoch));
        reconcile_failed = true;
      }
      if (!reconcile_failed) {
        std::string fields;
        for (const transport::wire::PeerStatsField& f :
             transport::wire::kPeerStatsFields) {
          if (!fields.empty()) fields += ' ';
          fields += std::string(f.name) + '=' + std::to_string(stats.*f.field);
        }
        std::fprintf(stderr, "reconcile: OK (%s)\n", fields.c_str());
      }
    }
  }

  std::sort(rtts_ms.begin(), rtts_ms.end());
  const double rt_per_s =
      elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
  const double slots_per_s =
      elapsed > 0.0 ? static_cast<double>(c.slots_rx_total) / elapsed : 0.0;
  double rtt_sum = 0.0;
  for (const double r : rtts_ms) rtt_sum += r;
  const double rtt_mean =
      rtts_ms.empty() ? 0.0 : rtt_sum / static_cast<double>(rtts_ms.size());
  const double p50 = Quantile(rtts_ms, 0.50);
  const double p90 = Quantile(rtts_ms, 0.90);
  const double p99 = Quantile(rtts_ms, 0.99);

  std::printf(
      "bdisk_load: %llu/%llu rounds in %.3fs (%.1f pull round-trips/s, "
      "%.1f slots/s heard)\n"
      "  pulls sent=%llu send_failed=%llu  slots rx=%llu  reconnects=%llu "
      "restarts=%llu\n"
      "  rtt ms: mean=%.2f p50=%.2f p90=%.2f p99=%.2f\n",
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rounds), elapsed, rt_per_s,
      slots_per_s, static_cast<unsigned long long>(c.pulls_sent),
      static_cast<unsigned long long>(c.pulls_send_failed),
      static_cast<unsigned long long>(c.slots_rx_total),
      static_cast<unsigned long long>(c.reconnects),
      static_cast<unsigned long long>(restarts), rtt_mean, p50, p90, p99);

  if (!report_path.empty()) {
    const auto format = [&](char* buf, std::size_t size) {
      return std::snprintf(
          buf, size,
          "{\"schema\":\"bdisk-load-v1\",\"build_type\":\"%s\","
          "\"git_rev\":\"%s\",\"optimized\":%s,\"socket\":\"%s\","
          "\"rounds\":%llu,\"completed\":%llu,\"failed\":%llu,"
          "\"elapsed_s\":%.6f,\"pull_rt_per_s\":%.3f,\"slots_per_s\":%.3f,"
          "\"pulls_sent\":%llu,\"slots_rx\":%llu,\"reconnects\":%llu,"
          "\"rtt_ms\":{\"mean\":%.4f,\"p50\":%.4f,\"p90\":%.4f,"
          "\"p99\":%.4f}}",
          core::BuildType(), core::GitRev(),
          core::OptimizedBuild() ? "true" : "false", socket_path.c_str(),
          static_cast<unsigned long long>(rounds),
          static_cast<unsigned long long>(completed),
          static_cast<unsigned long long>(failed),
          elapsed, rt_per_s, slots_per_s,
          static_cast<unsigned long long>(c.pulls_sent),
          static_cast<unsigned long long>(c.slots_rx_total),
          static_cast<unsigned long long>(c.reconnects), rtt_mean, p50, p90,
          p99);
    };
    std::string report(static_cast<std::size_t>(format(nullptr, 0)), '\0');
    format(report.data(), report.size() + 1);
    if (!cli::WriteOutput(report_path, report)) return 2;
  }

  if (reconcile_failed) return 1;
  if (completed == 0) {
    std::fprintf(stderr, "bdisk_load: no round completed\n");
    return 1;
  }
  return 0;
}
