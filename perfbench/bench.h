#ifndef BDISK_PERFBENCH_BENCH_H_
#define BDISK_PERFBENCH_BENCH_H_

// Shared pieces of the benchmark binary: the metric tables, the run
// outcome, sample statistics, the correctness gates, and the benchmark's
// own span recorder. Everything here measures the bdisk layers from
// outside, through their public headers; nothing is instrumented inside
// src/.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "transport/datagram_client.h"
#include "transport/datagram_transport.h"
#include "transport/wire.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// `num / den`, or 0 when there is nothing to divide by.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- metrics

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, in BENCHMARK.json
/// order.
const std::vector<MetricSpec>& EndToEndMetrics();

/// The per-layer metrics every traced run reports, in BENCHMARK.json
/// order. A layer a workload never enters reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// True when `name` matches [A-Za-z0-9_.-]+.
bool ValidMetricName(const std::string& name);

/// What one run measured and whether it passed its gates.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> human;  // Lines printed ahead of the metrics.

  void Fail(const std::string& why);
  void Note(const std::string& line) { human.push_back(line); }
};

/// Prints the human-readable lines, every metric of the selected table by
/// name with its unit, the failed-operation share, and finally the one-line
/// JSON result. A metric of the table that the workload did not set is a
/// benchmark bug and fails the run.
void PrintOutcome(Outcome* outcome, bool traced);

// ------------------------------------------------------------- statistics

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// Nearest-rank `q` quantile of `v`, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> v, double q);

/// Host-time metrics are read from the fastest units of work. The host
/// shares its cores with other tenants, whose load slows the same unit by
/// up to 2x in phases that last from milliseconds to minutes, so a median
/// over a run follows the neighbours' load. The fastest units ran while
/// the host left the core alone, and their speed is set by the program.
/// FastRate is the `q` quantile of the per-unit rates, FastTime the
/// 1 - `q` quantile of the per-unit times; each workload picks `q` for
/// its units.
inline double FastRate(std::vector<double> rates, double q) {
  return Quantile(std::move(rates), q);
}

inline double FastTime(std::vector<double> times, double q) {
  return Quantile(std::move(times), 1.0 - q);
}

/// The highest whole percentile (as a fraction) not above `q` that has at
/// least ten samples beyond it in a sample of `n`: with nearest-rank
/// indexing, n - ceil(p * n) >= 10. Returns 0 when even p1 lacks them.
double SupportedQuantile(std::size_t n, double q);

struct Tail {
  double q = 0.0;      // The percentile actually reported.
  double value = 0.0;  // Nearest-rank sample at q.
  std::size_t n = 0;   // Sample count.
};

/// The `q` percentile of `samples` (sorted in place), lowered to the
/// highest percentile that has ten samples beyond it.
Tail TailPercentile(std::vector<double>* samples, double q);

/// "p99 = 336.1 us (n=251234)" for human output.
std::string DescribeTail(const char* what, const Tail& tail,
                         const char* unit);

// ------------------------------------------------------ correctness gates

/// Invariants every simulated run must satisfy on this tree: slot
/// fractions sum to 1, every pull-queue submit has exactly one outcome,
/// every virtual-client arrival has exactly one outcome. Returns one
/// message per violated invariant.
std::vector<std::string> CheckSimInvariants(const bdisk::core::RunResult& r);

/// FNV-1a digest of a run's simulated statistics: the counters and
/// response statistics the trajectory determines. Kernel counters and
/// wall-clock fields are excluded, so kernel changes that keep the
/// trajectory keep the digest.
std::uint64_t SimDigest(const bdisk::core::RunResult& r);

/// One wire peer at the end of a serve run: the server's STATS reply to
/// its BYE and the client's own counters.
struct PeerReconcile {
  std::string client_id;
  bool got_stats = false;
  bdisk::transport::wire::PeerStats stats;
  bdisk::transport::ClientCounters client;
};

/// The bdisk_load --reconcile equalities for every peer (pulls_rx ==
/// pulls_sent, slots_tx_epoch == slots_rx_epoch), plus no malformed
/// datagram on either side. Returns one message per violation.
std::vector<std::string> CheckServeReconcile(
    const std::vector<PeerReconcile>& peers,
    const bdisk::transport::TransportCounters& server);

// ------------------------------------------------------------------ spans

/// One span recorded by the benchmark around a call into a layer.
struct Span {
  const char* name = "";     // Static string.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: none.
  std::uint64_t pull = 0;    // Pull id shared by a pull's spans; 0: none.
  std::int64_t arg = -1;     // Slot seq or item count; -1: none.
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-thread, in-memory span buffer: spans are kept (first `capacity`)
/// and written when the run ends; later ones are only counted.
class SpanRecorder {
 public:
  SpanRecorder(int tid, const char* thread_name, std::size_t capacity);

  /// A fresh span id (unique across recorders), for a parent span that
  /// must be referenced before it is recorded.
  std::uint64_t NextId() { return (static_cast<std::uint64_t>(tid_) << 40) |
                                  ++next_; }

  /// Records a finished span and returns its id (`id` 0 allocates one).
  std::uint64_t Add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t pull = 0, std::int64_t arg = -1,
                    std::uint64_t id = 0);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  int tid() const { return tid_; }
  const char* thread_name() const { return thread_name_; }

 private:
  int tid_;
  const char* thread_name_;
  std::size_t capacity_;
  std::uint64_t next_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Writes the recorders' spans as Chrome trace-event JSON (the form
/// `bdisk_sim --chrome-trace` emits), timestamps in microseconds from
/// `epoch`. Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path, Clock::time_point epoch,
                      const std::vector<const SpanRecorder*>& recorders);

/// Writes `text` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& text);

// -------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t default_seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string socket_dir;  // serve_wire's AF_UNIX socket files.
  std::string trace_dir;   // Where the traced run writes its spans.
};

/// Peak resident set size of this process so far, MiB.
double PeakRssMiB();

/// True for the workloads RunSimWorkload runs.
bool IsSimWorkload(const std::string& name);

Outcome RunSimWorkload(const Options& options);
Outcome RunServeWorkload(const Options& options);

/// Runs the benchmark's self-tests; prints one line per failure and
/// returns the failure count.
int RunSelfTests();

}  // namespace perfbench

#endif  // BDISK_PERFBENCH_BENCH_H_
