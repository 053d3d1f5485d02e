#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace elmo::obs {
namespace {

std::uint64_t to_bits(double v) noexcept { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) noexcept { return std::bit_cast<double>(b); }

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*
std::string sanitize(std::string_view name) {
  std::string out{name};
  for (auto& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

std::string fmt_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// Cell-table capacity: the most metrics one registry can hold. The table is
// allocated once, so a write indexes storage that never moves.
constexpr std::size_t kMaxMetrics = 512;

}  // namespace

struct MetricsRegistry::Impl {
  // One registered metric. Registration fills every plain field under
  // `mutex_` before it returns the Id; after that only the atomics change.
  struct Cell {
    std::optional<MetricKind> kind;  // unset until registered
    std::string name;
    std::string help;
    std::vector<double> bounds;  // histogram only
    std::atomic<std::uint64_t> value{0};  // counter total or gauge payload
    // Histogram only: per bound, then +Inf. They sum to the observations.
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> sum_bits{0};  // histogram sum, double payload
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Id> by_name_;
  std::uint32_t size_ = 0;  // registered cells, guarded by mutex_
  const std::unique_ptr<Cell[]> cells_ = std::make_unique<Cell[]>(kMaxMetrics);
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();

  // The cell behind `id`, or nullptr when `id` names no metric of `kind`.
  Cell* cell(Id id, MetricKind kind) noexcept {
    if (id >= kMaxMetrics || cells_[id].kind != kind) return nullptr;
    return &cells_[id];
  }

  Id register_metric(std::string_view raw_name, std::string_view help,
                     MetricKind kind, std::vector<double> bounds) {
    const auto name = sanitize(raw_name);
    std::lock_guard lk{mutex_};
    if (const auto it = by_name_.find(name); it != by_name_.end()) {
      const auto& c = cells_[it->second];
      if (c.kind != kind) {
        throw std::invalid_argument{"MetricsRegistry: metric '" + name +
                                    "' re-registered as a different kind"};
      }
      if (kind == MetricKind::kHistogram && c.bounds != bounds) {
        throw std::invalid_argument{"MetricsRegistry: histogram '" + name +
                                    "' re-registered with different bounds"};
      }
      return it->second;
    }
    if (kind == MetricKind::kHistogram) {
      if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end()) ||
          std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
        throw std::invalid_argument{
            "MetricsRegistry: histogram bounds must be strictly increasing "
            "and non-empty"};
      }
    }
    if (size_ == kMaxMetrics) {
      throw std::length_error{"MetricsRegistry: more than " +
                              std::to_string(kMaxMetrics) + " metrics"};
    }
    const Id id = size_++;
    auto& c = cells_[id];
    c.name = name;
    c.help = std::string{help};
    if (kind == MetricKind::kHistogram) {
      c.buckets = std::vector<std::atomic<std::uint64_t>>(bounds.size() + 1);
      c.bounds = std::move(bounds);
    }
    c.kind = kind;
    by_name_.emplace(name, id);
    return id;
  }
};

MetricsRegistry::MetricsRegistry(bool enabled)
    : enabled_{enabled}, impl_{std::make_unique<Impl>()} {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name,
                                             std::string_view help) {
  return impl_->register_metric(name, help, MetricKind::kCounter, {});
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name,
                                           std::string_view help) {
  return impl_->register_metric(name, help, MetricKind::kGauge, {});
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name,
                                               std::vector<double> bounds,
                                               std::string_view help) {
  return impl_->register_metric(name, help, MetricKind::kHistogram,
                                std::move(bounds));
}

void MetricsRegistry::add(Id id, std::uint64_t delta) {
  if (!enabled()) return;
  if (auto* c = impl_->cell(id, MetricKind::kCounter)) {
    c->value.fetch_add(delta, std::memory_order_relaxed);
  }
}

void MetricsRegistry::gauge_set(Id id, double value) {
  if (!enabled()) return;
  if (auto* c = impl_->cell(id, MetricKind::kGauge)) {
    c->value.store(to_bits(value), std::memory_order_relaxed);
  }
}

void MetricsRegistry::gauge_max(Id id, double value) {
  if (!enabled()) return;
  if (auto* c = impl_->cell(id, MetricKind::kGauge)) {
    auto cur = c->value.load(std::memory_order_relaxed);
    while (from_bits(cur) < value &&
           !c->value.compare_exchange_weak(cur, to_bits(value),
                                           std::memory_order_relaxed)) {
    }
  }
}

void MetricsRegistry::observe(Id id, double value) {
  if (!enabled()) return;
  auto* c = impl_->cell(id, MetricKind::kHistogram);
  if (c == nullptr) return;
  const auto it = std::lower_bound(c->bounds.begin(), c->bounds.end(), value);
  c->buckets[static_cast<std::size_t>(it - c->bounds.begin())].fetch_add(
      1, std::memory_order_relaxed);
  auto cur = c->sum_bits.load(std::memory_order_relaxed);
  while (!c->sum_bits.compare_exchange_weak(
      cur, to_bits(from_bits(cur) + value), std::memory_order_relaxed)) {
  }
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  {
    std::lock_guard lk{impl_->mutex_};
    snap.uptime_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - impl_->start_)
                              .count();
    for (std::uint32_t id = 0; id < impl_->size_; ++id) {
      const auto& c = impl_->cells_[id];
      MetricSample s;
      s.name = c.name;
      s.help = c.help;
      s.kind = *c.kind;
      const auto value = c.value.load(std::memory_order_relaxed);
      switch (s.kind) {
        case MetricKind::kCounter:
          s.value = static_cast<double>(value);
          break;
        case MetricKind::kGauge:
          s.value = from_bits(value);
          break;
        case MetricKind::kHistogram:
          s.bounds = c.bounds;
          for (const auto& b : c.buckets) {
            s.buckets.push_back(b.load(std::memory_order_relaxed));
            s.observations += s.buckets.back();
          }
          s.sum = from_bits(c.sum_bits.load(std::memory_order_relaxed));
          break;
      }
      snap.metrics.push_back(std::move(s));
    }
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry{/*enabled=*/false};
  return *registry;
}

const MetricSample* Snapshot::find(std::string_view name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double Snapshot::value(std::string_view name) const {
  const auto* m = find(name);
  return m != nullptr ? m->value : 0.0;
}

std::string Snapshot::prometheus() const {
  std::string out;
  auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  line("# HELP elmo_uptime_seconds Seconds since registry creation");
  line("# TYPE elmo_uptime_seconds gauge");
  line("elmo_uptime_seconds " + fmt_value(uptime_seconds));
  for (const auto& m : metrics) {
    if (!m.help.empty()) line("# HELP " + m.name + " " + escape(m.help));
    line("# TYPE " + m.name + " " + kind_name(m.kind));
    if (m.kind != MetricKind::kHistogram) {
      line(m.name + " " + fmt_value(m.value));
      continue;
    }
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < m.bounds.size(); ++b) {
      cum += m.buckets[b];
      line(m.name + "_bucket{le=\"" + fmt_value(m.bounds[b]) + "\"} " +
           std::to_string(cum));
    }
    cum += m.buckets.back();
    line(m.name + "_bucket{le=\"+Inf\"} " + std::to_string(cum));
    line(m.name + "_sum " + fmt_value(m.sum));
    line(m.name + "_count " + std::to_string(m.observations));
  }
  return out;
}

std::string Snapshot::json() const {
  std::string out = "{\n  \"uptime_seconds\": " + fmt_value(uptime_seconds) +
                    ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": \"" + m.name + "\", \"kind\": \"" + kind_name(m.kind) +
           "\"";
    if (!m.help.empty()) out += ", \"help\": \"" + escape(m.help) + "\"";
    if (m.kind != MetricKind::kHistogram) {
      out += ", \"value\": " + fmt_value(m.value) + "}";
      continue;
    }
    out += ", \"count\": " + std::to_string(m.observations) +
           ", \"sum\": " + fmt_value(m.sum) + ", \"buckets\": [";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < m.bounds.size(); ++b) {
      cum += m.buckets[b];
      out += "{\"le\": " + fmt_value(m.bounds[b]) +
             ", \"count\": " + std::to_string(cum) + "}, ";
    }
    cum += m.buckets.back();
    out += "{\"le\": \"+Inf\", \"count\": " + std::to_string(cum) + "}]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool write_metrics(const std::string& path, const Snapshot& snap) {
  const bool json = path.size() >= 5 && path.ends_with(".json");
  const auto text = json ? snap.json() : snap.prometheus();
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stderr);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "write_metrics: cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

std::vector<double> latency_bounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};
}

}  // namespace elmo::obs
