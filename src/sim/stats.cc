#include "sim/stats.h"

#include <algorithm>
#include <cmath>

namespace bdisk::sim {

void RunningStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

double RunningStats::StdError() const {
  if (count_ == 0) return 0.0;
  return StdDev() / std::sqrt(static_cast<double>(count_));
}

}  // namespace bdisk::sim
