#ifndef BDISK_BENCH_HARNESS_H_
#define BDISK_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/system.h"

namespace bdisk::bench {

/// Measurement protocol used by the figure benches. Honors the environment
/// variable BDISK_BENCH_QUICK (any non-empty value): a shorter, noisier
/// protocol for smoke-testing the harness.
core::SteadyStateProtocol BenchSteadyProtocol();
core::WarmupProtocol BenchWarmupProtocol();

/// True when BDISK_BENCH_QUICK is set.
bool QuickMode();

/// Prints the standard experiment banner: figure id, paper reference, the
/// build's provenance, and the Table 3 parameters that apply to every run.
/// Refuses to run a non-optimized build (core::RequireOptimizedBuild).
void PrintBanner(const std::string& figure, const std::string& description);

/// Pivots sweep outcomes into a curve-per-column table of mean response
/// times and prints it. `x_label` heads the first column; rows are the
/// distinct x values in first-appearance order, columns the distinct curve
/// labels in first-appearance order.
void PrintResponseTable(const std::string& x_label,
                        const std::vector<core::SweepOutcome>& outcomes);

/// Same pivot, but prints the server drop rate instead of response time.
void PrintDropRateTable(const std::string& x_label,
                        const std::vector<core::SweepOutcome>& outcomes);

/// Pivots warm-up outcomes: rows are warm-up fractions, columns curves,
/// cells the first time each fraction was reached.
void PrintWarmupTable(const std::vector<core::SweepOutcome>& outcomes);

/// Convenience: the paper's ThinkTimeRatio sweep {10,25,50,100,250}.
std::vector<double> PaperTtrSweep();

/// Builds a SweepPoint with Table 3 defaults plus the given overrides.
core::SweepPoint MakePoint(const std::string& curve, double x,
                           core::DeliveryMode mode, double ttr,
                           double pull_bw = 0.5, double thres_perc = 0.0,
                           double steady_state_perc = 0.95,
                           double noise = 0.0, std::uint32_t chop = 0);

}  // namespace bdisk::bench

#endif  // BDISK_BENCH_HARNESS_H_
