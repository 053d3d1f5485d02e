#include "obs/health.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace elmo::obs {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kCritical:
      return "critical";
  }
  return "unknown";
}

namespace {

std::string fmt_num(double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

HealthMonitor::HealthMonitor(const TimeSeriesStore& store,
                             HealthMonitorOptions opts)
    : store_{store}, opts_{opts} {}

void HealthMonitor::add_detector(std::unique_ptr<Detector> detector) {
  detectors_.push_back(std::move(detector));
}

std::vector<std::size_t> HealthMonitor::tick() {
  std::vector<std::size_t> opened;
  const std::uint64_t win = store_.window();  // completed windows so far
  if (win < opts_.warmup_windows) return opened;

  scratch_.clear();
  for (const auto& detector : detectors_) {
    detector->scan(store_, scratch_);
  }

  for (auto& f : scratch_) {
    const auto key = std::pair{f.klass, f.element};
    const auto it = index_.find(key);
    if (it == index_.end()) {
      Incident inc;
      inc.id = incidents_.size();
      inc.klass = std::move(f.klass);
      inc.severity = f.severity;
      inc.element = std::move(f.element);
      inc.summary = std::move(f.summary);
      inc.evidence = std::move(f.evidence);
      inc.first_window = win;
      inc.last_window = win;
      inc.windows_active = 1;
      index_.emplace(key, incidents_.size());
      opened.push_back(incidents_.size());
      incidents_.push_back(std::move(inc));
      continue;
    }
    Incident& inc = incidents_[it->second];
    if (inc.last_window == win) {
      // A second finding for the same (class, element) in one tick: merge
      // evidence-wise, don't double-count the window.
      inc.severity = std::max(inc.severity, f.severity);
      continue;
    }
    const bool reopened = !inc.open;
    if (reopened) {
      inc.open = true;
      ++inc.flaps;
      opened.push_back(it->second);
    } else if (win > inc.last_window + 1) {
      ++inc.flaps;  // quiet gap while still open: a flap, not a new incident
    }
    inc.last_window = win;
    ++inc.windows_active;
    inc.severity = std::max(inc.severity, f.severity);
    inc.summary = std::move(f.summary);
    inc.evidence = std::move(f.evidence);
  }

  for (auto& inc : incidents_) {
    if (inc.open && win >= inc.last_window + opts_.close_after) {
      inc.open = false;
    }
  }
  return opened;
}

std::size_t HealthMonitor::open_count() const {
  std::size_t n = 0;
  for (const auto& inc : incidents_) n += inc.open ? 1 : 0;
  return n;
}

bool HealthMonitor::has_incident(std::string_view klass) const {
  return std::any_of(incidents_.begin(), incidents_.end(),
                     [&](const Incident& inc) { return inc.klass == klass; });
}

void HealthMonitor::attach_explanation(std::size_t index, std::string text) {
  if (index < incidents_.size()) {
    incidents_[index].explanation = std::move(text);
  }
}

void HealthMonitor::attach_traces(std::size_t index,
                                  std::vector<std::uint64_t> trace_ids) {
  if (index < incidents_.size()) {
    incidents_[index].trace_ids = std::move(trace_ids);
  }
}

std::string HealthMonitor::render_text() const {
  std::ostringstream out;
  out << "health: " << incidents_.size() << " incident(s), " << open_count()
      << " open, window " << store_.window() << "\n";
  for (const auto& inc : incidents_) {
    out << "[" << to_string(inc.severity) << "] " << inc.klass << " @ "
        << inc.element << "  windows " << inc.first_window << ".."
        << inc.last_window << " (active " << inc.windows_active << ", flaps "
        << inc.flaps << ") " << (inc.open ? "OPEN" : "closed") << "\n";
    out << "       " << inc.summary << "\n";
    for (const auto& e : inc.evidence) {
      out << "       - " << e.series << ": observed " << fmt_num(e.observed)
          << ", threshold " << fmt_num(e.threshold);
      if (!e.note.empty()) out << " (" << e.note << ")";
      out << "\n";
    }
    if (!inc.explanation.empty()) {
      out << "       --- first affected send ---\n";
      std::istringstream lines{inc.explanation};
      std::string line;
      while (std::getline(lines, line)) out << "       " << line << "\n";
    }
  }
  return out.str();
}

std::string HealthMonitor::render_json() const {
  std::ostringstream out;
  out << "{\n  \"window\": " << store_.window()
      << ",\n  \"open\": " << open_count() << ",\n  \"incidents\": [";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const auto& inc = incidents_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"class\": \"" << json_escape(inc.klass)
        << "\", \"severity\": \"" << to_string(inc.severity)
        << "\", \"element\": \"" << json_escape(inc.element)
        << "\", \"summary\": \"" << json_escape(inc.summary)
        << "\",\n     \"first_window\": " << inc.first_window
        << ", \"last_window\": " << inc.last_window
        << ", \"windows_active\": " << inc.windows_active
        << ", \"flaps\": " << inc.flaps << ", \"open\": "
        << (inc.open ? "true" : "false") << ",\n     \"evidence\": [";
    for (std::size_t e = 0; e < inc.evidence.size(); ++e) {
      const auto& ev = inc.evidence[e];
      out << (e == 0 ? "\n" : ",\n");
      out << "       {\"series\": \"" << json_escape(ev.series)
          << "\", \"observed\": " << fmt_num(ev.observed)
          << ", \"threshold\": " << fmt_num(ev.threshold) << ", \"note\": \""
          << json_escape(ev.note) << "\"}";
    }
    out << (inc.evidence.empty() ? "]" : "\n     ]");
    if (!inc.explanation.empty()) {
      out << ",\n     \"explanation\": \"" << json_escape(inc.explanation)
          << "\"";
    }
    if (!inc.trace_ids.empty()) {
      out << ",\n     \"trace_ids\": [";
      for (std::size_t t = 0; t < inc.trace_ids.size(); ++t) {
        out << (t == 0 ? "" : ", ") << inc.trace_ids[t];
      }
      out << "]";
    }
    out << "}";
  }
  out << (incidents_.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

// --- built-in detectors ----------------------------------------------------

namespace {

// Detector thresholds.
// loss-rate: fire at >= 0.5% per-window loss, escalate to kCritical at >= 5%,
// and ignore windows with fewer transmissions.
constexpr double kLossMinRate = 0.005;
constexpr double kLossCriticalRate = 0.05;
constexpr double kLossMinTransmissions = 50;
// stuck-element: consecutive windows with ingress >= kStuckMinIngress and no
// egress before it fires.
constexpr std::uint64_t kStuckWindows = 2;
constexpr double kStuckMinIngress = 1;
// fanout-anomaly: |1 - delivered/expected| to fire and to escalate, judged
// only over windows expecting at least kFanoutMinExpected deliveries.
constexpr double kFanoutTolerance = 0.002;
constexpr double kFanoutCriticalRatio = 0.05;
constexpr double kFanoutMinExpected = 64;
// churn-lag: install-lag p99 budget, and the EWMA over the p99 series with
// its warm-up before any verdict.
constexpr double kChurnLagBudgetSeconds = 0.050;
constexpr double kChurnLagAlpha = 0.5;
constexpr std::size_t kChurnLagMinSamples = 3;

// Per-window delta of `name`, or nullopt without two samples.
std::optional<double> win_delta(const TimeSeriesStore& ts,
                                std::string_view name) {
  return ts.delta(name, 1);
}

// Conservation-law gray-loss localizer: for each layer, copies accounted on
// links INTO it minus packets the layer processed. On a healthy fabric the
// two are exactly equal (the walk enqueues every non-lost copy); any
// deficit is the loss model (or a real gray link) eating copies in flight.
class LossRateDetector final : public Detector {
 public:
  const char* name() const override { return "loss-rate"; }

  void scan(const TimeSeriesStore& ts, std::vector<Finding>& out) override {
    struct LayerIn {
      const char* element;
      const char* tx_a;          // links into the layer...
      const char* tx_b;          // ...from the other direction (may be null)
      const char* arrived;       // the layer's arrival counter
    };
    static constexpr LayerIn kLayers[] = {
        {"layer-in:leaf", "elmo_link_host_leaf_tx_total",
         "elmo_link_spine_leaf_tx_total", "elmo_dp_leaf_packets_in_total"},
        {"layer-in:spine", "elmo_link_leaf_spine_tx_total",
         "elmo_link_core_spine_tx_total", "elmo_dp_spine_packets_in_total"},
        {"layer-in:core", "elmo_link_spine_core_tx_total", nullptr,
         "elmo_dp_core_packets_in_total"},
        {"layer-in:host", "elmo_link_leaf_host_tx_total", nullptr,
         "elmo_dp_host_received_total"},
    };
    for (const auto& layer : kLayers) {
      const auto tx_a = win_delta(ts, layer.tx_a);
      const auto arrived = win_delta(ts, layer.arrived);
      if (!tx_a || !arrived) continue;
      double tx = *tx_a;
      if (layer.tx_b != nullptr) {
        const auto tx_b = win_delta(ts, layer.tx_b);
        if (!tx_b) continue;
        tx += *tx_b;
      }
      if (tx < kLossMinTransmissions) continue;
      const double lost = tx - *arrived;
      const double rate = lost / tx;
      if (rate < kLossMinRate) continue;
      Finding f;
      f.klass = kLinkLossClass;
      f.severity = rate >= kLossCriticalRate ? Severity::kCritical
                                             : Severity::kWarning;
      f.element = layer.element;
      f.summary = "links into " +
                  std::string{layer.element + sizeof("layer-in:") - 1} +
                  " lost " + fmt_num(lost) + " of " + fmt_num(tx) +
                  " copies this window (" + fmt_num(rate * 100.0) + "%)";
      f.evidence.push_back(Evidence{"derived:loss_rate", rate, kLossMinRate,
                                    "lost / transmitted, one window"});
      f.evidence.push_back(Evidence{layer.tx_a, *tx_a, 0, "delta"});
      if (layer.tx_b != nullptr) {
        f.evidence.push_back(
            Evidence{layer.tx_b, tx - *tx_a, 0, "delta"});
      }
      f.evidence.push_back(Evidence{layer.arrived, *arrived, 0, "delta"});
      out.push_back(std::move(f));
    }
  }
};

class StuckElementDetector final : public Detector {
 public:
  const char* name() const override { return "stuck-element"; }

  void scan(const TimeSeriesStore& ts, std::vector<Finding>& out) override {
    struct Layer {
      const char* element;
      const char* in;
      const char* egress;
    };
    static constexpr Layer kLayers[] = {
        {"layer:leaf", "elmo_dp_leaf_packets_in_total",
         "elmo_dp_leaf_copies_out_total"},
        {"layer:spine", "elmo_dp_spine_packets_in_total",
         "elmo_dp_spine_copies_out_total"},
        {"layer:core", "elmo_dp_core_packets_in_total",
         "elmo_dp_core_copies_out_total"},
    };
    for (const auto& layer : kLayers) {
      // Every one of the last kStuckWindows per-window deltas must show traffic
      // entering the layer and nothing leaving it.
      if (ts.samples(layer.in) < kStuckWindows + 1) continue;
      bool stuck = true;
      double ingress = 0;
      for (std::uint64_t w = 0; w < kStuckWindows && stuck; ++w) {
        const auto* in_new = ts.at(layer.in, w);
        const auto* in_old = ts.at(layer.in, w + 1);
        const auto* out_new = ts.at(layer.egress, w);
        const auto* out_old = ts.at(layer.egress, w + 1);
        if (in_new == nullptr || in_old == nullptr || out_new == nullptr ||
            out_old == nullptr) {
          stuck = false;
          break;
        }
        const double din = in_new->value - in_old->value;
        const double dout = out_new->value - out_old->value;
        if (din < kStuckMinIngress || dout != 0) stuck = false;
        if (w == 0) ingress = din;
      }
      if (!stuck) continue;
      Finding f;
      f.klass = kStuckElementClass;
      f.severity = Severity::kCritical;
      f.element = layer.element;
      f.summary = std::string{layer.element + sizeof("layer:") - 1} +
                  " layer ingests traffic but emitted zero copies for " +
                  fmt_num(static_cast<double>(kStuckWindows)) + " window(s)";
      f.evidence.push_back(Evidence{layer.in, ingress, kStuckMinIngress,
                                    "per-window ingress"});
      f.evidence.push_back(Evidence{layer.egress, 0, 0,
                                    "per-window egress, expected > 0"});
      out.push_back(std::move(f));
    }
  }
};

class FanoutAnomalyDetector final : public Detector {
 public:
  const char* name() const override { return "fanout-anomaly"; }

  void scan(const TimeSeriesStore& ts, std::vector<Finding>& out) override {
    const auto expected = win_delta(ts, "elmo_expect_vm_deliveries_total");
    const auto actual = win_delta(ts, "elmo_dp_host_vm_deliveries_total");
    if (!expected || !actual || *expected < kFanoutMinExpected) return;
    const double ratio = *actual / *expected;
    const double deviation = std::abs(1.0 - ratio);
    if (deviation <= kFanoutTolerance) return;
    Finding f;
    f.klass = kFanoutAnomalyClass;
    f.severity = deviation >= kFanoutCriticalRatio ? Severity::kCritical
                                                 : Severity::kWarning;
    f.element = "hosts";
    f.summary = "VM deliveries " + fmt_num(*actual) + " vs analytic " +
                "expectation " + fmt_num(*expected) + " this window (" +
                fmt_num(ratio) + "x)";
    f.evidence.push_back(Evidence{"derived:delivery_ratio_deviation",
                                  deviation, kFanoutTolerance,
                                  "|1 - delivered/expected|"});
    f.evidence.push_back(Evidence{"elmo_dp_host_vm_deliveries_total", *actual,
                                  0, "delta"});
    f.evidence.push_back(Evidence{"elmo_expect_vm_deliveries_total",
                                  *expected, 0, "delta"});
    out.push_back(std::move(f));
  }
};

class ChurnLagDetector final : public Detector {
 public:
  const char* name() const override { return "churn-lag"; }

  void scan(const TimeSeriesStore& ts, std::vector<Finding>& out) override {
    // EWMA over the p99 series smooths one-off spikes; kChurnLagMinSamples
    // is the warm-up gate (no verdicts off a cold series).
    const auto smoothed = ts.ewma_value("elmo_stream_install_lag_p99_seconds",
                                        kChurnLagAlpha, kChurnLagMinSamples);
    if (!smoothed || *smoothed <= kChurnLagBudgetSeconds) return;
    Finding f;
    f.klass = kChurnLagClass;
    f.severity = *smoothed > 2.0 * kChurnLagBudgetSeconds
                     ? Severity::kCritical
                     : Severity::kWarning;
    f.element = "stream:install-lag";
    f.summary = "install-lag p99 EWMA " + fmt_num(*smoothed) +
                "s breaches the " + fmt_num(kChurnLagBudgetSeconds) +
                "s budget";
    f.evidence.push_back(
        Evidence{"elmo_stream_install_lag_p99_seconds", *smoothed,
                 kChurnLagBudgetSeconds,
                 "EWMA(alpha=" + fmt_num(kChurnLagAlpha) + ")"});
    out.push_back(std::move(f));
  }
};

}  // namespace

std::unique_ptr<Detector> make_loss_rate_detector() {
  return std::make_unique<LossRateDetector>();
}

std::unique_ptr<Detector> make_stuck_element_detector() {
  return std::make_unique<StuckElementDetector>();
}

std::unique_ptr<Detector> make_fanout_anomaly_detector() {
  return std::make_unique<FanoutAnomalyDetector>();
}

std::unique_ptr<Detector> make_churn_lag_detector() {
  return std::make_unique<ChurnLagDetector>();
}

void add_default_detectors(HealthMonitor& monitor) {
  monitor.add_detector(make_loss_rate_detector());
  monitor.add_detector(make_stuck_element_detector());
  monitor.add_detector(make_fanout_anomaly_detector());
  monitor.add_detector(make_churn_lag_detector());
}

}  // namespace elmo::obs
