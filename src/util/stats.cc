#include "util/stats.h"

#include <stdexcept>

namespace elmo::util {

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument{"percentile of empty set"};
  if (p < 0.0 || p > 100.0) throw std::invalid_argument{"percentile range"};
  std::vector<double> sorted{samples.begin(), samples.end()};
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

double Distribution::percentile(double p) const {
  return util::percentile(values_, p);
}

}  // namespace elmo::util
