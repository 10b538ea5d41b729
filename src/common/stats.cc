#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace tsf::common {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  // Neumaier's variant of Kahan summation: exact running sum even when the
  // addend is larger than the running total.
  const double t = sum_ + x;
  if (std::abs(sum_) >= std::abs(x)) {
    sum_c_ += (sum_ - t) + x;
  } else {
    sum_c_ += (x - t) + sum_;
  }
  sum_ = t;
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void QuantileReservoir::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

double QuantileReservoir::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(samples_.size() - 1));
  return samples_[std::min(idx, samples_.size() - 1)];
}

}  // namespace tsf::common
