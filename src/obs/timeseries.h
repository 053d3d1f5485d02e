// Fixed-capacity metric time series for health monitoring (DESIGN.md §14).
//
// A TimeSeriesStore keeps the last K samples of any number of named scalar
// series in per-series ring buffers. Values arrive in "sampling windows":
// the producer appends one value per series (directly via append(), or for
// a whole MetricsRegistry scrape via ingest()), then closes the window with
// advance(). Every sample carries the monotonic index of the window it was
// taken in, so consumers (HealthMonitor detectors, tools/metrics_dump
// --watch) can compute per-window deltas, rates, and EWMAs without caring
// how often the producer ticks.
//
// Hot-path contract: once the series set is stable, append() performs a
// transparent (no std::string construction) hash lookup and one ring write
// — no allocation. The clock is read at most once per window, by its first
// append; every sample of the window carries that one timestamp. Only the
// first sighting of a new series name allocates (the ring buffer and the
// map node). Rings never grow or shrink; capacity is fixed at construction.
//
// The store is NOT thread-safe; concurrent producers must scrape through a
// thread-safe MetricsRegistry snapshot and ingest() from a single sampling
// thread (that is how the TSan-covered health tests drive it).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace elmo::obs {

struct Snapshot;

// One buffered observation of one series.
struct TsSample {
  std::uint64_t window = 0;  // monotonic sampling-window index
  double t = 0;  // seconds since store creation, read once per window
  double value = 0;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(std::size_t capacity = 64);

  std::size_t capacity() const noexcept { return capacity_; }
  // Completed sampling windows. Samples appended now are stamped with this
  // index; advance() increments it.
  std::uint64_t window() const noexcept { return window_; }
  std::size_t series_count() const noexcept { return series_.size(); }

  // Records `value` for `name` under the current window. A second append to
  // the same series within one window overwrites the sample (keeping its
  // timestamp), so re-scrapes within a window stay idempotent.
  void append(std::string_view name, double value);

  // Closes the current sampling window; returns the index of the window
  // that just completed.
  std::uint64_t advance() {
    window_t_.reset();
    return window_++;
  }

  // Scrapes `snap` into the store — one append per counter/gauge (value)
  // and histogram (observation count) — then closes the window. Returns
  // the completed window index.
  std::uint64_t ingest(const Snapshot& snap);

  // --- queries (all keyed by series name; allocation-free lookups) --------

  // Samples currently buffered for `name` (0 when unknown).
  std::size_t samples(std::string_view name) const;
  // The newest sample, or the one `back` windows of history earlier
  // (back == 0 is the newest). nullptr when out of range.
  const TsSample* last(std::string_view name) const { return at(name, 0); }
  const TsSample* at(std::string_view name, std::size_t back) const;

  // value(newest) - value(newest - back). nullopt without enough samples.
  std::optional<double> delta(std::string_view name,
                              std::size_t back = 1) const;
  // delta over the wall-clock span of the same two samples, per second.
  std::optional<double> rate(std::string_view name,
                             std::size_t back = 1) const;
  // EWMA over the buffered sample VALUES, oldest to newest:
  //   e_0 = v_0;  e_i = alpha * v_i + (1 - alpha) * e_{i-1}.
  // nullopt until at least `min_samples` samples are buffered (the warm-up
  // gate HealthMonitor detectors rely on).
  std::optional<double> ewma_value(std::string_view name, double alpha,
                                   std::size_t min_samples = 2) const;

  // All series names, sorted. Allocates; not for the sampling path.
  std::vector<std::string> names() const;

 private:
  struct Ring {
    std::vector<TsSample> buf;  // fixed capacity, set at creation
    std::size_t head = 0;       // next write slot
    std::size_t count = 0;      // live samples (<= buf.size())

    void push(const TsSample& s) {
      buf[head] = s;
      head = (head + 1) % buf.size();
      if (count < buf.size()) ++count;
    }
    // back == 0 is the newest sample; precondition back < count.
    const TsSample& from_newest(std::size_t back) const {
      return buf[(head + buf.size() - 1 - back) % buf.size()];
    }
    TsSample& newest() { return buf[(head + buf.size() - 1) % buf.size()]; }
  };

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  const Ring* find(std::string_view name) const;

  std::size_t capacity_;
  std::uint64_t window_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  // The current window's timestamp: read at its first append, shared by
  // every sample of the window, cleared by advance().
  std::optional<double> window_t_;
  // unique_ptr payloads keep Ring addresses stable across rehashes, so the
  // sampling path can cache nothing and still be allocation-free.
  std::unordered_map<std::string, std::unique_ptr<Ring>, StringHash,
                     std::equal_to<>>
      series_;
};

}  // namespace elmo::obs
