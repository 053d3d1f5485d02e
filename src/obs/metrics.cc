#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
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

// Per-(thread, histogram) storage. Bounds are copied in so the hot path
// never reads the (mutex-guarded, growable) definition table.
struct HistCell {
  explicit HistCell(const std::vector<double>& b)
      : bounds(b), counts(b.size() + 1) {}

  const std::vector<double> bounds;
  std::vector<std::atomic<std::uint64_t>> counts;  // per bound, then +Inf
  std::atomic<std::uint64_t> observations{0};
  std::atomic<std::uint64_t> sum_bits{0};  // double payload

  void observe(double v) noexcept {
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
    const auto idx = static_cast<std::size_t>(it - bounds.begin());
    counts[idx].fetch_add(1, std::memory_order_relaxed);
    observations.fetch_add(1, std::memory_order_relaxed);
    auto cur = sum_bits.load(std::memory_order_relaxed);
    while (!sum_bits.compare_exchange_weak(cur, to_bits(from_bits(cur) + v),
                                           std::memory_order_relaxed)) {
    }
  }

  void reset() noexcept {
    for (auto& c : counts) c.store(0, std::memory_order_relaxed);
    observations.store(0, std::memory_order_relaxed);
    sum_bits.store(0, std::memory_order_relaxed);
  }
};

// One thread's private cells. deque: growth never moves existing atomics.
struct Shard {
  std::deque<std::atomic<std::uint64_t>> counters;       // by counter slot
  std::vector<std::unique_ptr<HistCell>> hists;          // by histogram slot
};

std::atomic<std::uint64_t> g_epoch_source{1};

}  // namespace

struct MetricsRegistry::Impl {
  struct Def {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::uint32_t slot = 0;  // kind-local index
    std::vector<double> bounds;  // histogram only
  };

  mutable std::mutex mutex_;
  std::vector<Def> defs_;
  std::unordered_map<std::string, Id> by_name_;
  std::uint32_t num_counters_ = 0;
  std::uint32_t num_gauges_ = 0;
  std::uint32_t num_hists_ = 0;
  std::deque<std::atomic<std::uint64_t>> gauges_;  // double payloads
  std::vector<std::shared_ptr<Shard>> shards_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  const std::uint64_t epoch_ =
      g_epoch_source.fetch_add(1, std::memory_order_relaxed);

  // Thread-local cache: (registry, epoch) -> shard + raw cell pointers. The
  // epoch is globally unique per registry instance, so a stale entry for a
  // destroyed registry can never match a live one, even at the same address.
  struct TlsEntry {
    const Impl* impl = nullptr;
    std::uint64_t epoch = 0;
    std::shared_ptr<Shard> shard;  // keeps the cells alive past the registry
    std::vector<std::atomic<std::uint64_t>*> counter_cells;  // by Id
    std::vector<std::atomic<std::uint64_t>*> gauge_cells;    // by Id
    std::vector<HistCell*> hist_cells;                       // by Id
  };
  static std::vector<TlsEntry>& tls_entries() {
    thread_local std::vector<TlsEntry> entries;
    return entries;
  }

  TlsEntry& tls() {
    auto& entries = tls_entries();
    for (auto& e : entries) {
      if (e.impl == this && e.epoch == epoch_) return e;
    }
    // Bound stale entries (destroyed registries) before adding a new one.
    if (entries.size() > 8) {
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [&](const TlsEntry& e) {
                                     return e.impl != this || e.epoch != epoch_;
                                   }),
                    entries.end());
    }
    auto& e = entries.emplace_back();
    e.impl = this;
    e.epoch = epoch_;
    {
      std::lock_guard lk{mutex_};
      e.shard = std::make_shared<Shard>();
      shards_.push_back(e.shard);
    }
    return e;
  }

  Id register_metric(std::string_view raw_name, std::string_view help,
                     MetricKind kind, std::vector<double> bounds) {
    const auto name = sanitize(raw_name);
    std::lock_guard lk{mutex_};
    if (const auto it = by_name_.find(name); it != by_name_.end()) {
      const auto& def = defs_[it->second];
      if (def.kind != kind) {
        throw std::invalid_argument{"MetricsRegistry: metric '" + name +
                                    "' re-registered as a different kind"};
      }
      if (kind == MetricKind::kHistogram && def.bounds != bounds) {
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
    Def def;
    def.name = name;
    def.help = std::string{help};
    def.kind = kind;
    def.bounds = std::move(bounds);
    switch (kind) {
      case MetricKind::kCounter:
        def.slot = num_counters_++;
        break;
      case MetricKind::kGauge:
        def.slot = num_gauges_++;
        while (gauges_.size() < num_gauges_) gauges_.emplace_back(0);
        break;
      case MetricKind::kHistogram:
        def.slot = num_hists_++;
        break;
    }
    const auto id = static_cast<Id>(defs_.size());
    defs_.push_back(std::move(def));
    by_name_.emplace(name, id);
    return id;
  }

  std::atomic<std::uint64_t>* counter_cell(Id id) {
    auto& e = tls();
    if (id < e.counter_cells.size() && e.counter_cells[id] != nullptr) {
      return e.counter_cells[id];
    }
    std::lock_guard lk{mutex_};
    if (id >= defs_.size() || defs_[id].kind != MetricKind::kCounter) {
      return nullptr;
    }
    const auto slot = defs_[id].slot;
    while (e.shard->counters.size() <= slot) e.shard->counters.emplace_back(0);
    if (e.counter_cells.size() <= id) e.counter_cells.resize(id + 1, nullptr);
    e.counter_cells[id] = &e.shard->counters[slot];
    return e.counter_cells[id];
  }

  std::atomic<std::uint64_t>* gauge_cell(Id id) {
    auto& e = tls();
    if (id < e.gauge_cells.size() && e.gauge_cells[id] != nullptr) {
      return e.gauge_cells[id];
    }
    std::lock_guard lk{mutex_};
    if (id >= defs_.size() || defs_[id].kind != MetricKind::kGauge) {
      return nullptr;
    }
    if (e.gauge_cells.size() <= id) e.gauge_cells.resize(id + 1, nullptr);
    e.gauge_cells[id] = &gauges_[defs_[id].slot];
    return e.gauge_cells[id];
  }

  HistCell* hist_cell(Id id) {
    auto& e = tls();
    if (id < e.hist_cells.size() && e.hist_cells[id] != nullptr) {
      return e.hist_cells[id];
    }
    std::lock_guard lk{mutex_};
    if (id >= defs_.size() || defs_[id].kind != MetricKind::kHistogram) {
      return nullptr;
    }
    const auto slot = defs_[id].slot;
    if (e.shard->hists.size() <= slot) e.shard->hists.resize(slot + 1);
    if (e.shard->hists[slot] == nullptr) {
      e.shard->hists[slot] = std::make_unique<HistCell>(defs_[id].bounds);
    }
    if (e.hist_cells.size() <= id) e.hist_cells.resize(id + 1, nullptr);
    e.hist_cells[id] = e.shard->hists[slot].get();
    return e.hist_cells[id];
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
  if (auto* cell = impl_->counter_cell(id)) {
    cell->fetch_add(delta, std::memory_order_relaxed);
  }
}

void MetricsRegistry::gauge_set(Id id, double value) {
  if (!enabled()) return;
  if (auto* cell = impl_->gauge_cell(id)) {
    cell->store(to_bits(value), std::memory_order_relaxed);
  }
}

void MetricsRegistry::gauge_max(Id id, double value) {
  if (!enabled()) return;
  if (auto* cell = impl_->gauge_cell(id)) {
    auto cur = cell->load(std::memory_order_relaxed);
    while (from_bits(cur) < value &&
           !cell->compare_exchange_weak(cur, to_bits(value),
                                        std::memory_order_relaxed)) {
    }
  }
}

void MetricsRegistry::observe(Id id, double value) {
  if (!enabled()) return;
  if (auto* cell = impl_->hist_cell(id)) cell->observe(value);
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  {
    std::lock_guard lk{impl_->mutex_};
    snap.uptime_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - impl_->start_)
                              .count();
    for (const auto& def : impl_->defs_) {
      MetricSample s;
      s.name = def.name;
      s.help = def.help;
      s.kind = def.kind;
      switch (def.kind) {
        case MetricKind::kCounter: {
          std::uint64_t total = 0;
          for (const auto& shard : impl_->shards_) {
            if (def.slot < shard->counters.size()) {
              total +=
                  shard->counters[def.slot].load(std::memory_order_relaxed);
            }
          }
          s.value = static_cast<double>(total);
          break;
        }
        case MetricKind::kGauge:
          s.value = from_bits(
              impl_->gauges_[def.slot].load(std::memory_order_relaxed));
          break;
        case MetricKind::kHistogram: {
          s.bounds = def.bounds;
          s.buckets.assign(def.bounds.size() + 1, 0);
          double sum = 0;
          for (const auto& shard : impl_->shards_) {
            if (def.slot >= shard->hists.size() ||
                shard->hists[def.slot] == nullptr) {
              continue;
            }
            const auto& cell = *shard->hists[def.slot];
            for (std::size_t b = 0; b < s.buckets.size(); ++b) {
              s.buckets[b] += cell.counts[b].load(std::memory_order_relaxed);
            }
            s.observations +=
                cell.observations.load(std::memory_order_relaxed);
            sum += from_bits(cell.sum_bits.load(std::memory_order_relaxed));
          }
          s.sum = sum;
          break;
        }
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

void MetricsRegistry::reset() {
  std::lock_guard lk{impl_->mutex_};
  for (const auto& shard : impl_->shards_) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : shard->hists) {
      if (h != nullptr) h->reset();
    }
  }
  for (auto& g : impl_->gauges_) g.store(0, std::memory_order_relaxed);
  impl_->start_ = std::chrono::steady_clock::now();
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
  line("# HELP elmo_uptime_seconds Seconds since registry creation or reset");
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
