#include "obs/timeseries.h"

#include <algorithm>

#include "obs/metrics.h"

namespace elmo::obs {

TimeSeriesStore::TimeSeriesStore(std::size_t capacity)
    : capacity_{std::max<std::size_t>(capacity, 2)},
      epoch_{std::chrono::steady_clock::now()} {}

void TimeSeriesStore::append(std::string_view name, double value) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    auto ring = std::make_unique<Ring>();
    ring->buf.resize(capacity_);
    it = series_.emplace(std::string{name}, std::move(ring)).first;
  }
  Ring& ring = *it->second;
  if (ring.count > 0 && ring.newest().window == window_) {
    ring.newest().value = value;  // re-scrape within one window
    return;
  }
  if (!window_t_) {
    window_t_ = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - epoch_)
                    .count();
  }
  ring.push(TsSample{window_, *window_t_, value});
}

std::uint64_t TimeSeriesStore::ingest(const Snapshot& snap) {
  for (const auto& m : snap.metrics) {
    const double value = m.kind == MetricKind::kHistogram
                             ? static_cast<double>(m.observations)
                             : m.value;
    append(m.name, value);
  }
  return advance();
}

const TimeSeriesStore::Ring* TimeSeriesStore::find(
    std::string_view name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second.get();
}

std::size_t TimeSeriesStore::samples(std::string_view name) const {
  const auto* ring = find(name);
  return ring == nullptr ? 0 : ring->count;
}

const TsSample* TimeSeriesStore::at(std::string_view name,
                                    std::size_t back) const {
  const auto* ring = find(name);
  if (ring == nullptr || back >= ring->count) return nullptr;
  return &ring->from_newest(back);
}

std::optional<double> TimeSeriesStore::delta(std::string_view name,
                                             std::size_t back) const {
  const auto* ring = find(name);
  if (ring == nullptr || back == 0 || back >= ring->count) return std::nullopt;
  return ring->from_newest(0).value - ring->from_newest(back).value;
}

std::optional<double> TimeSeriesStore::rate(std::string_view name,
                                            std::size_t back) const {
  const auto* ring = find(name);
  if (ring == nullptr || back == 0 || back >= ring->count) return std::nullopt;
  const auto& a = ring->from_newest(back);
  const auto& b = ring->from_newest(0);
  const double dt = b.t - a.t;
  if (dt <= 0) return std::nullopt;
  return (b.value - a.value) / dt;
}

std::optional<double> TimeSeriesStore::ewma_value(
    std::string_view name, double alpha, std::size_t min_samples) const {
  const auto* ring = find(name);
  if (ring == nullptr || ring->count < std::max<std::size_t>(min_samples, 1)) {
    return std::nullopt;
  }
  double e = ring->from_newest(ring->count - 1).value;
  for (std::size_t i = ring->count - 1; i-- > 0;) {
    e = alpha * ring->from_newest(i).value + (1.0 - alpha) * e;
  }
  return e;
}

std::vector<std::string> TimeSeriesStore::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, ring] : series_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace elmo::obs
