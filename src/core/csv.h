#ifndef BDISK_CORE_CSV_H_
#define BDISK_CORE_CSV_H_

#include <string>
#include <vector>

#include "core/experiment.h"

namespace bdisk::core {

/// Renders sweep outcomes as CSV (one row per point) for external plotting
/// tools. Columns: curve, x, mean_response, response_p50, response_p90,
/// response_p95, response_p99, response_max, drop_rate, hit_rate,
/// pulls_sent, requests_submitted, requests_dropped, push_frac, pull_frac,
/// idle_frac, converged.
std::string SweepCsv(const std::vector<SweepOutcome>& outcomes);

/// Renders warm-up trajectories as CSV: curve, x, fraction, time.
/// Unreached fractions are omitted.
std::string WarmupCsv(const std::vector<SweepOutcome>& outcomes);

}  // namespace bdisk::core

#endif  // BDISK_CORE_CSV_H_
