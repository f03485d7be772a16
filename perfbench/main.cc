// bdisk_perfbench — the repository benchmark.
//
//   bdisk_perfbench --workload sim_light|sim_saturated|serve_wire
//                   --seed N --seconds S --trace 0|1
//                   --default-seed N --held-out-seed N
//                   [--socket-dir DIR] [--trace-dir DIR]
//   bdisk_perfbench --self-test
//
// Prints one provenance line, human-readable results, every metric by name
// with its unit, and as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Normally run through perfbench/run.py, which builds this binary first.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/provenance.h"
#include "obs/json.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: bdisk_perfbench --workload sim_light|sim_saturated|serve_wire\n"
      "         --seed N --seconds S --trace 0|1 --default-seed N\n"
      "         --held-out-seed N [--socket-dir DIR] [--trace-dir DIR]\n"
      "       bdisk_perfbench --self-test\n");
}

/// The provenance stamp printed ahead of every result.
std::string Provenance(const perfbench::Options& o,
                       std::uint64_t held_out_seed) {
  double load1 = -1.0;
  getloadavg(&load1, 1);
  std::int64_t qlen = -1;
  std::ifstream qlen_file("/proc/sys/net/unix/max_dgram_qlen");
  qlen_file >> qlen;
  bdisk::obs::JsonWriter w;
  w.BeginObject();
  w.Key("git_rev");
  w.Value(bdisk::core::GitRev());
  w.Key("build_type");
  w.Value(bdisk::core::BuildType());
  w.Key("nproc");
  w.Value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.Key("loadavg_1m");
  w.Value(load1);
  w.Key("max_dgram_qlen");
  w.Value(qlen);
  w.Key("serve_transport");
  w.Value("AF_UNIX SOCK_DGRAM on the local host; no real link");
  w.Key("workload");
  w.Value(o.workload);
  w.Key("seed");
  w.Value(o.seed);
  w.Key("default_seed");
  w.Value(o.default_seed);
  w.Key("held_out_seed");
  w.Value(held_out_seed);
  w.Key("seconds");
  w.Value(o.seconds);
  w.Key("trace");
  w.Value(o.trace);
  w.EndObject();
  return w.str();
}

bool ParseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::uint64_t held_out_seed = 0;
  bool self_test = false;
  bool have_seed = false;
  bool have_default = false;
  bool have_held_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", arg.c_str());
      PrintUsage();
      return 2;
    }
    const char* value = argv[++i];
    std::uint64_t n = 0;
    bool ok = true;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      ok = ParseU64(value, &o.seed);
      have_seed = true;
    } else if (arg == "--default-seed") {
      ok = ParseU64(value, &o.default_seed);
      have_default = true;
    } else if (arg == "--held-out-seed") {
      ok = ParseU64(value, &held_out_seed);
      have_held_out = true;
    } else if (arg == "--seconds") {
      ok = ParseU64(value, &n) && n >= 1 && n <= 600;
      o.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      ok = ParseU64(value, &n) && n <= 1;
      o.trace = n == 1;
    } else if (arg == "--socket-dir") {
      o.socket_dir = value;
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(), value);
      return 2;
    }
  }

  bdisk::core::RequireOptimizedBuild("bdisk_perfbench");
  // Both variables swap the kernel implementation under test without any
  // trace in the configuration; numbers taken under them would be
  // attributed to the wrong code.
  for (const char* name : {"BDISK_KERNEL_QUEUE", "BDISK_ARRIVAL_SPINE"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "bdisk_perfbench: refusing to run with %s set; it "
                   "replaces the kernel under test\n",
                   name);
      return 2;
    }
  }

  const int self_test_failures = perfbench::RunSelfTests();
  if (self_test) return self_test_failures == 0 ? 0 : 1;
  if (self_test_failures != 0) return 3;

  const bool serve = o.workload == "serve_wire";
  if (!serve && !perfbench::IsSimWorkload(o.workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    PrintUsage();
    return 2;
  }
  if (!have_seed || !have_default || !have_held_out) {
    std::fprintf(stderr,
                 "--seed, --default-seed and --held-out-seed are required\n");
    return 2;
  }
  if (serve && o.socket_dir.empty()) {
    std::fprintf(stderr, "serve_wire needs --socket-dir\n");
    return 2;
  }

  std::printf("provenance: %s\n", Provenance(o, held_out_seed).c_str());
  perfbench::Outcome outcome =
      serve ? perfbench::RunServeWorkload(o) : perfbench::RunSimWorkload(o);
  perfbench::PrintOutcome(&outcome, o.trace);
  return outcome.correct ? 0 : 1;
}
