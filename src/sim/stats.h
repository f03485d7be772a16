#ifndef BDISK_SIM_STATS_H_
#define BDISK_SIM_STATS_H_

#include <cstdint>
#include <limits>

namespace bdisk::sim {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long runs; O(1) memory. This is the primary
/// response-time metric collector: the paper reports "average response time
/// at the client measured in broadcast units".
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Removes all observations.
  void Reset() { *this = RunningStats(); }

  /// Number of observations.
  std::uint64_t Count() const { return count_; }

  /// Arithmetic mean; 0 if empty.
  double Mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Unbiased sample variance; 0 with fewer than two observations.
  double Variance() const;

  /// Sample standard deviation.
  double StdDev() const;

  /// Standard error of the mean.
  double StdError() const;

  /// Smallest observation; +inf if empty.
  double Min() const { return min_; }

  /// Largest observation; -inf if empty.
  double Max() const { return max_; }

  /// Sum of all observations.
  double Sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_STATS_H_
