#include "sim/histogram.h"

#include <algorithm>

#include "sim/check.h"

namespace bdisk::sim {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)) {
  BDISK_CHECK_MSG(lo < hi, "histogram range must be non-empty");
  BDISK_CHECK_MSG(buckets >= 1, "histogram needs at least one bucket");
  counts_.assign(buckets, 0);
}

void Histogram::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  idx = std::min(idx, counts_.size() - 1);  // Guards FP edge at hi_.
  ++counts_[idx];
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  underflow_ = 0;
  overflow_ = 0;
  count_ = 0;
  min_ = 0.0;
  max_ = 0.0;
}

double Histogram::BucketLow(std::size_t i) const {
  return lo_ + static_cast<double>(i) * width_;
}

double Histogram::Quantile(double q) const {
  BDISK_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (count_ == 0) return lo_;
  const auto clamp = [this](double v) {
    return std::min(std::max(v, min_), max_);
  };
  const double target = q * static_cast<double>(count_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target) return clamp(lo_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return clamp(BucketLow(i) + frac * width_);
    }
    cum = next;
  }
  return clamp(hi_);
}

}  // namespace bdisk::sim
