// Streaming and batch statistics used by every experiment harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace elmo::util {

// Welford online accumulator: mean/variance/min/max without storing samples.
class OnlineStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const OnlineStats& other) noexcept;

  std::size_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Batch percentile over a copy of the samples (nearest-rank definition).
double percentile(std::span<const double> samples, double p);

// Sample container that keeps values for percentile queries.
class Distribution {
 public:
  void add(double x) {
    values_.push_back(x);
    stats_.add(x);
  }
  const OnlineStats& stats() const noexcept { return stats_; }
  double percentile(double p) const;
  std::size_t count() const noexcept { return values_.size(); }
  std::span<const double> values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
  OnlineStats stats_;
};

}  // namespace elmo::util
