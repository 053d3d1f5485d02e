// Fleet telemetry: a metrics registry (counters, gauges, fixed-bucket
// histograms) whose writes take no lock.
//
// Design (DESIGN.md §9):
//   * Registration (`counter`/`gauge`/`histogram`) returns a stable integer
//     Id. Registering an existing name returns the existing Id, so
//     independent modules can share a metric by name.
//   * Every metric lives in one registry-owned cell of a fixed-capacity
//     table, filled under the registry mutex before its Id is returned
//     (registration throws std::length_error once the table is full). A
//     write indexes that table, which never moves, and updates the cell
//     with relaxed atomics: no lock, no hashing, no thread-local state.
//     Writers on different threads share the cell.
//   * Gauges are last-write-wins (`gauge_set`) or a monotone `gauge_max`
//     high-water mark.
//   * `snapshot()` reads every cell and renders to a Prometheus-style text
//     exposition or a JSON dump. Short-lived components (a bench's fabric)
//     add their totals once at the end of a run
//     (sim::accumulate_fabric_metrics) rather than being scraped live.
//   * Disabled registries (`set_enabled(false)`) turn every write into a
//     single relaxed bool load. The global registry starts disabled; benches
//     enable it when `--metrics=<path>` is given.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace elmo::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

// One aggregated metric at scrape time.
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  // counter / gauge
  // Histogram only. `buckets` holds per-bucket (non-cumulative) counts, one
  // per bound plus the trailing +Inf bucket; bucket i counts observations
  // v <= bounds[i].
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t observations = 0;
  double sum = 0;
};

struct Snapshot {
  double uptime_seconds = 0;  // since registry creation
  std::vector<MetricSample> metrics;  // sorted by name

  // Prometheus text exposition format (HELP/TYPE comments, cumulative
  // histogram buckets with le labels, _sum/_count series).
  std::string prometheus() const;
  // {"uptime_seconds": ..., "metrics": [{...}, ...]} with cumulative
  // histogram buckets, mirroring the exposition.
  std::string json() const;

  const MetricSample* find(std::string_view name) const;
  // Convenience: counter/gauge value, or 0 when absent.
  double value(std::string_view name) const;
};

class MetricsRegistry {
 public:
  using Id = std::uint32_t;

  explicit MetricsRegistry(bool enabled = true);
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (idempotent by name; kind mismatch throws) ------------
  Id counter(std::string_view name, std::string_view help = {});
  Id gauge(std::string_view name, std::string_view help = {});
  // `bounds` are strictly increasing upper bounds; an implicit +Inf bucket
  // is appended. Re-registering must pass identical bounds.
  Id histogram(std::string_view name, std::vector<double> bounds,
               std::string_view help = {});

  // --- writes (no-ops while disabled) -------------------------------------
  void add(Id id, std::uint64_t delta = 1);
  void gauge_set(Id id, double value);
  void gauge_max(Id id, double value);  // monotone high-water mark
  void observe(Id id, double value);

  // --- scrape --------------------------------------------------------------
  Snapshot snapshot() const;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Process-wide registry; starts disabled.
  static MetricsRegistry& global();

 private:
  struct Impl;
  friend struct Impl;

  std::atomic<bool> enabled_;
  std::unique_ptr<Impl> impl_;
};

// Writes `snap` to `path`: "-" means stderr; a ".json" suffix selects the
// JSON dump, anything else the Prometheus text exposition. Returns false
// (with a perror-style message on stderr) when the file cannot be written.
bool write_metrics(const std::string& path, const Snapshot& snap);

// Shared bucket ladder for wall-clock spans: 1µs .. 100s, decades.
std::vector<double> latency_bounds();

}  // namespace elmo::obs

// Runtime-gated instrumentation statement: `stmt` may refer to the global
// registry as `reg`. Costs one relaxed load while metrics are disabled.
#define ELMO_METRIC(stmt)                                        \
  do {                                                           \
    auto& reg = ::elmo::obs::MetricsRegistry::global();          \
    if (reg.enabled()) {                                         \
      stmt;                                                      \
    }                                                            \
  } while (0)
