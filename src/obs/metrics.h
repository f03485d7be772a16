#ifndef BDISK_OBS_METRICS_H_
#define BDISK_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "sim/histogram.h"
#include "sim/stats.h"
#include "sim/time_series.h"

namespace bdisk::obs {

/// A monotonically increasing event count.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_ += n; }
  void Set(std::uint64_t v) { value_ = v; }
  std::uint64_t Value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time scalar (rates, fractions, high-water marks).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double Value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// A fixed-bucket latency histogram paired with exact streaming moments.
///
/// Percentiles (p50/p90/p95/p99) interpolate within the containing bucket,
/// so their error is bounded by one bucket width; min/max/mean/count come
/// from the exact RunningStats side. Add() is two array writes and a few
/// compares — cheap enough for per-access instrumentation.
class LatencyHistogram {
 public:
  /// Buckets [lo, hi) into `buckets` equal cells (plus under/overflow).
  LatencyHistogram(double lo, double hi, std::size_t buckets)
      : hist_(lo, hi, buckets) {}

  void Add(double x) {
    hist_.Add(x);
    stats_.Add(x);
  }

  /// Forgets all observations; the bucket shape is kept. Reuses the
  /// existing bucket buffer, so resetting on a phase boundary (warm-up vs
  /// measurement, or per telemetry window) never allocates.
  void Reset() {
    hist_.Reset();
    stats_.Reset();
  }

  std::uint64_t Count() const { return stats_.Count(); }
  double Mean() const { return stats_.Mean(); }
  double Min() const { return stats_.Min(); }
  double Max() const { return stats_.Max(); }

  /// Interpolated quantile, q in [0,1].
  double Percentile(double q) const { return hist_.Quantile(q); }

  const sim::Histogram& histogram() const { return hist_; }
  const sim::RunningStats& stats() const { return stats_; }

 private:
  sim::Histogram hist_;
  sim::RunningStats stats_;
};

/// A unified, name-keyed registry of counters, gauges, histograms, running
/// statistics, and time-series.
///
/// Design (see DESIGN.md §6): components never pay for an unattached
/// registry — instrumentation sites hold a raw pointer that is null when
/// observability is off, so the hot path costs exactly one pointer check.
/// When attached, components resolve their metrics ONCE (by name, at attach
/// time) and thereafter touch plain counters; no lookups, no locks, no
/// allocation on the simulation hot path (time-series appends amortize via
/// vector growth, and are windowed to a few hundred samples per run).
///
/// Names are dotted paths ("server.slots_push", "client.mc.response");
/// ToJson() renders one flat section per metric kind, keyed by name.
/// Returned pointers are stable for the registry's lifetime (node-based
/// map storage).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  sim::RunningStats* GetStats(const std::string& name);
  sim::TimeSeries* GetTimeSeries(const std::string& name);

  /// Copies an externally owned histogram into the registry under `name`
  /// (used to export always-on component histograms into a snapshot).
  void ExportHistogram(const std::string& name, const LatencyHistogram& h);

  /// Read-only views (tests, snapshot assembly).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, sim::RunningStats>& stats() const {
    return stats_;
  }
  const std::map<std::string, sim::TimeSeries>& time_series() const {
    return time_series_;
  }

  /// Serializes the whole registry: {"schema":"bdisk-metrics-v1",
  /// "counters":{...},"gauges":{...},"stats":{...},"histograms":{...},
  /// "time_series":{...}}. Histograms carry count/mean/min/max, the p50/
  /// p90/p95/p99 percentiles, and their non-empty buckets; time-series are
  /// [time, value] pairs.
  std::string ToJson() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
  std::map<std::string, sim::RunningStats> stats_;
  std::map<std::string, sim::TimeSeries> time_series_;
};

}  // namespace bdisk::obs

#endif  // BDISK_OBS_METRICS_H_
