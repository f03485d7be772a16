#include "obs/metrics.h"

#include <utility>

#include "obs/json.h"

namespace bdisk::obs {

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return &counters_[name];
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return &gauges_[name];
}

sim::RunningStats* MetricsRegistry::GetStats(const std::string& name) {
  return &stats_[name];
}

sim::TimeSeries* MetricsRegistry::GetTimeSeries(const std::string& name) {
  return &time_series_[name];
}

void MetricsRegistry::ExportHistogram(const std::string& name,
                                      const LatencyHistogram& h) {
  histograms_.insert_or_assign(name, h);
}

namespace {

void WriteHistogram(JsonWriter* w, const LatencyHistogram& h) {
  w->BeginObject();
  w->Key("count");
  w->Value(h.Count());
  w->Key("mean");
  w->Value(h.Mean());
  w->Key("min");
  w->Value(h.Count() == 0 ? 0.0 : h.Min());
  w->Key("max");
  w->Value(h.Count() == 0 ? 0.0 : h.Max());
  w->Key("p50");
  w->Value(h.Percentile(0.50));
  w->Key("p90");
  w->Value(h.Percentile(0.90));
  w->Key("p95");
  w->Value(h.Percentile(0.95));
  w->Key("p99");
  w->Value(h.Percentile(0.99));
  const sim::Histogram& hist = h.histogram();
  w->Key("underflow");
  w->Value(hist.Underflow());
  w->Key("overflow");
  w->Value(hist.Overflow());
  w->Key("buckets");
  w->BeginArray();
  for (std::size_t i = 0; i < hist.NumBuckets(); ++i) {
    if (hist.BucketCount(i) == 0) continue;  // Sparse: zeros carry no info.
    w->BeginArray();
    w->Value(hist.BucketLow(i));
    w->Value(hist.BucketCount(i));
    w->EndArray();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.Value("bdisk-metrics-v1");

  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, c] : counters_) {
    w.Key(name);
    w.Value(c.Value());
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, g] : gauges_) {
    w.Key(name);
    w.Value(g.Value());
  }
  w.EndObject();

  w.Key("stats");
  w.BeginObject();
  for (const auto& [name, s] : stats_) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Value(s.Count());
    w.Key("mean");
    w.Value(s.Mean());
    w.Key("min");
    w.Value(s.Count() == 0 ? 0.0 : s.Min());
    w.Key("max");
    w.Value(s.Count() == 0 ? 0.0 : s.Max());
    w.Key("stddev");
    w.Value(s.StdDev());
    w.EndObject();
  }
  w.EndObject();

  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name);
    WriteHistogram(&w, h);
  }
  w.EndObject();

  w.Key("time_series");
  w.BeginObject();
  for (const auto& [name, ts] : time_series_) {
    w.Key(name);
    w.BeginArray();
    for (const sim::TimeSeries::Sample& s : ts.samples()) {
      w.BeginArray();
      w.Value(s.time);
      w.Value(s.value);
      w.EndArray();
    }
    w.EndArray();
  }
  w.EndObject();

  w.EndObject();
  return w.str();
}

}  // namespace bdisk::obs
