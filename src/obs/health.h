// Gray-failure health monitoring over metric time series (DESIGN.md §14).
//
// A HealthMonitor runs pluggable Detectors over the consecutive per-window
// deltas buffered in a TimeSeriesStore. Each tick(), every detector scans
// the store and reports zero or more Findings — conditions that hold in the
// window that just closed. The monitor folds findings into durable Incident
// records, deduplicated by (class, element): a condition that persists for
// ten windows is ONE incident with windows_active == 10, and a condition
// that oscillates (fires, goes quiet, fires again) is ONE incident with a
// flap count, not K copies. Incidents close after `close_after` quiet
// windows and silently reopen (flap++) if the condition returns.
//
// The four built-in detectors read the series sim::Fabric::sample_into()
// and the verify/healthmon drivers export:
//
//   loss-rate       elmo_link_<from>_<to>_tx_total vs the next layer's
//                   arrival counters: a conservation-law asymmetry between
//                   copies put on the wire towards a layer and packets that
//                   layer processed localizes gray loss to "links into X".
//   stuck-element   elmo_dp_<layer>_packets_in_total advancing while
//                   elmo_dp_<layer>_copies_out_total is flat for N windows.
//   fanout-anomaly  elmo_dp_host_vm_deliveries_total diverging from the
//                   analytic expectation series the driver appends
//                   (elmo_expect_vm_deliveries_total).
//   churn-lag       EWMA of elmo_stream_install_lag_p99_seconds breaching
//                   an install-lag budget.
//
// Incidents render as pretty text (render_text) and as a JSON document
// (render_json) whose schema scripts/lint_metrics.py --incidents enforces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/timeseries.h"

namespace elmo::obs {

enum class Severity : std::uint8_t { kInfo, kWarning, kCritical };
const char* to_string(Severity severity);

// Classes minted by the built-in detectors. Plain strings so out-of-tree
// detectors can add their own without touching this header.
inline constexpr const char* kLinkLossClass = "link-loss";
inline constexpr const char* kStuckElementClass = "stuck-element";
inline constexpr const char* kFanoutAnomalyClass = "fanout-anomaly";
inline constexpr const char* kChurnLagClass = "churn-lag";

// One series comparison that contributed to a finding: the exact delta the
// detector observed and the threshold it crossed.
struct Evidence {
  std::string series;
  double observed = 0;
  double threshold = 0;
  std::string note;
};

// A condition one detector saw in the current window. Findings are
// ephemeral; the monitor folds them into Incidents.
struct Finding {
  std::string klass;
  Severity severity = Severity::kWarning;
  std::string element;  // suspected element/layer, e.g. "layer-in:leaf"
  std::string summary;
  std::vector<Evidence> evidence;
};

class Detector {
 public:
  virtual ~Detector() = default;
  virtual const char* name() const = 0;
  // Reports every condition that holds NOW (newest window of `store`).
  // Idempotent per window; the monitor handles dedup and persistence.
  virtual void scan(const TimeSeriesStore& store,
                    std::vector<Finding>& out) = 0;
};

// Durable record of one (class, element) condition over its lifetime.
struct Incident {
  std::uint64_t id = 0;
  std::string klass;
  Severity severity = Severity::kInfo;  // max over all reports
  std::string element;
  std::string summary;             // latest report's wording
  std::vector<Evidence> evidence;  // latest report's evidence
  std::uint64_t first_window = 0;
  std::uint64_t last_window = 0;    // newest window the condition held in
  std::uint64_t windows_active = 0; // windows the condition actually held
  std::uint64_t flaps = 0;          // re-fires after >= 1 quiet window
  bool open = true;
  // Optional rendered verify::explain_send for an affected send, attached
  // by the driver (tools/healthmon) when provenance is available.
  std::string explanation;
  // Optional causal-trace IDs (DESIGN.md §15) of the sampling windows and
  // installs that contributed to this incident, attached by the driver when
  // an obs::Tracer is live — join them against the trace export to see what
  // the fabric was doing when the detector fired.
  std::vector<std::uint64_t> trace_ids;
};

struct HealthMonitorOptions {
  // Detectors do not run before this many windows have completed — the
  // store-wide warm-up gate (per-detector EWMA warm-ups stack on top).
  std::uint64_t warmup_windows = 3;
  // Open incidents close after this many consecutive quiet windows.
  std::uint64_t close_after = 3;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(const TimeSeriesStore& store,
                         HealthMonitorOptions opts = {});

  void add_detector(std::unique_ptr<Detector> detector);

  // Runs every detector against the store's newest completed window. Call
  // once per window, after TimeSeriesStore::advance()/ingest(). Returns the
  // indices (into incidents()) of incidents opened OR reopened this tick.
  std::vector<std::size_t> tick();

  const std::vector<Incident>& incidents() const noexcept {
    return incidents_;
  }
  std::size_t open_count() const;
  bool has_incident(std::string_view klass) const;
  void attach_explanation(std::size_t index, std::string text);
  // Replaces the incident's contributing-trace list (see Incident::trace_ids).
  void attach_traces(std::size_t index, std::vector<std::uint64_t> trace_ids);

  // Human-readable incident timeline.
  std::string render_text() const;
  // JSON document; schema linted by scripts/lint_metrics.py --incidents.
  std::string render_json() const;

 private:
  const TimeSeriesStore& store_;
  HealthMonitorOptions opts_;
  std::vector<std::unique_ptr<Detector>> detectors_;
  std::vector<Incident> incidents_;
  std::map<std::pair<std::string, std::string>, std::size_t> index_;
  std::vector<Finding> scratch_;  // reused across ticks
};

// --- built-in detectors ----------------------------------------------------

std::unique_ptr<Detector> make_loss_rate_detector();
std::unique_ptr<Detector> make_stuck_element_detector();
std::unique_ptr<Detector> make_fanout_anomaly_detector();
std::unique_ptr<Detector> make_churn_lag_detector();

// All four built-ins.
void add_default_detectors(HealthMonitor& monitor);

}  // namespace elmo::obs
