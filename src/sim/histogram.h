#ifndef BDISK_SIM_HISTOGRAM_H_
#define BDISK_SIM_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace bdisk::sim {

/// Fixed-width bucket histogram over [lo, hi) with overflow/underflow
/// buckets. Used for response-time distributions in diagnostics: the mean
/// alone hides the bimodality that appears when pull requests are dropped
/// and the push "safety net" takes over.
class Histogram {
 public:
  /// Buckets [lo, hi) into `buckets` equal cells; lo < hi, buckets >= 1.
  Histogram(double lo, double hi, std::size_t buckets);

  /// Records one observation.
  void Add(double x);

  /// Forgets all observations, keeping the bucket shape and the existing
  /// counts buffer (no allocation — safe on phase boundaries inside runs).
  void Reset();

  /// Total observations, including under/overflow.
  std::uint64_t Count() const { return count_; }

  /// Observations below `lo` / at-or-above `hi`.
  std::uint64_t Underflow() const { return underflow_; }
  std::uint64_t Overflow() const { return overflow_; }

  /// Count in the i-th cell.
  std::uint64_t BucketCount(std::size_t i) const { return counts_[i]; }

  /// Number of cells (excluding under/overflow).
  std::size_t NumBuckets() const { return counts_.size(); }

  /// Lower edge of cell i.
  double BucketLow(std::size_t i) const;

  /// Smallest / largest observation recorded since construction or Reset().
  /// Meaningful only when Count() > 0.
  double Min() const { return min_; }
  double Max() const { return max_; }

  /// Value below which `q` (in [0,1]) of the observations fall, interpolated
  /// within the containing bucket and clamped to the observed [Min, Max], so
  /// a low-count histogram can never report a percentile outside the data.
  double Quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_HISTOGRAM_H_
