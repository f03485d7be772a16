#include "harness.h"

#include <cstdio>
#include <cstdlib>

#include "core/provenance.h"
#include "core/table_printer.h"

namespace bdisk::bench {

bool QuickMode() {
  const char* quick = std::getenv("BDISK_BENCH_QUICK");
  return quick != nullptr && quick[0] != '\0';
}

core::SteadyStateProtocol BenchSteadyProtocol() {
  if (QuickMode()) return core::SteadyStateProtocol::Quick();
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 4000;  // Paper §4.
  protocol.min_measured_accesses = 3000;
  protocol.max_measured_accesses = 12000;
  protocol.batch_size = 1000;
  protocol.tolerance = 0.03;
  return protocol;
}

core::WarmupProtocol BenchWarmupProtocol() {
  core::WarmupProtocol protocol;  // Fractions 10%..95% as in Figure 4.
  return protocol;
}

void PrintBanner(const std::string& figure, const std::string& description) {
  core::RequireOptimizedBuild(figure.c_str());
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s — \"Balancing Push and Pull for Data Broadcast\" "
              "(SIGMOD 1997)\n", figure.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("build: %s @ %s\n", core::BuildType(), core::GitRev());
  std::printf("Table 3 defaults: DB=1000 pages, disks {100,400,500} @ "
              "{3,2,1}, cache=100,\nqueue=100, MC think=20, Zipf(0.95), "
              "Offset=CacheSize. Times in broadcast units.\n");
  if (QuickMode()) {
    std::printf("[BDISK_BENCH_QUICK set: short protocol, noisier numbers]\n");
  }
  std::printf("==============================================================="
              "=========\n\n");
}

namespace {

// Collects distinct values in first-appearance order.
template <typename T, typename Get>
std::vector<T> Distinct(const std::vector<core::SweepOutcome>& outcomes,
                        Get get) {
  std::vector<T> values;
  for (const auto& outcome : outcomes) {
    const T value = get(outcome);
    bool found = false;
    for (const T& v : values) {
      if (v == value) found = true;
    }
    if (!found) values.push_back(value);
  }
  return values;
}

using CellFn = double (*)(const core::RunResult&);

void PrintPivot(const std::string& x_label,
                const std::vector<core::SweepOutcome>& outcomes,
                CellFn cell, int precision) {
  const auto curves = Distinct<std::string>(
      outcomes, [](const auto& o) { return o.point.curve; });
  const auto xs =
      Distinct<double>(outcomes, [](const auto& o) { return o.point.x; });

  std::vector<std::string> headers = {x_label};
  headers.insert(headers.end(), curves.begin(), curves.end());
  core::TablePrinter table(headers);
  for (const double x : xs) {
    std::vector<std::string> row = {core::TablePrinter::Fmt(x, 0)};
    for (const std::string& curve : curves) {
      std::string value = "-";
      for (const auto& outcome : outcomes) {
        if (outcome.point.x == x && outcome.point.curve == curve) {
          value = core::TablePrinter::Fmt(cell(outcome.result), precision);
        }
      }
      row.push_back(value);
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

void PrintResponseTable(const std::string& x_label,
                        const std::vector<core::SweepOutcome>& outcomes) {
  PrintPivot(
      x_label, outcomes,
      [](const core::RunResult& r) { return r.mean_response; }, 1);
}

void PrintDropRateTable(const std::string& x_label,
                        const std::vector<core::SweepOutcome>& outcomes) {
  PrintPivot(
      x_label, outcomes,
      [](const core::RunResult& r) { return r.drop_rate * 100.0; }, 1);
}

void PrintWarmupTable(const std::vector<core::SweepOutcome>& outcomes) {
  const auto curves = Distinct<std::string>(
      outcomes, [](const auto& o) { return o.point.curve; });
  std::vector<std::string> headers = {"warm-up %"};
  headers.insert(headers.end(), curves.begin(), curves.end());
  core::TablePrinter table(headers);

  if (outcomes.empty()) return;
  for (const auto& point : outcomes.front().result.warmup) {
    std::vector<std::string> row = {
        core::TablePrinter::Pct(point.fraction, 0)};
    for (const std::string& curve : curves) {
      std::string value = "-";
      for (const auto& outcome : outcomes) {
        if (outcome.point.curve != curve) continue;
        for (const auto& wp : outcome.result.warmup) {
          if (wp.fraction == point.fraction && wp.time != sim::kTimeNever) {
            value = core::TablePrinter::Fmt(wp.time, 0);
          }
        }
      }
      row.push_back(value);
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
}

std::vector<double> PaperTtrSweep() { return {10, 25, 50, 100, 250}; }

core::SweepPoint MakePoint(const std::string& curve, double x,
                           core::DeliveryMode mode, double ttr,
                           double pull_bw, double thres_perc,
                           double steady_state_perc, double noise,
                           std::uint32_t chop) {
  core::SweepPoint point;
  point.curve = curve;
  point.x = x;
  point.config.mode = mode;
  point.config.think_time_ratio = ttr;
  point.config.pull_bw = pull_bw;
  point.config.thres_perc = thres_perc;
  point.config.steady_state_perc = steady_state_perc;
  point.config.noise = noise;
  point.config.chop_count = chop;
  return point;
}

}  // namespace bdisk::bench
