// Health subsystem tests (DESIGN.md §14): TimeSeriesStore ring semantics,
// HealthMonitor incident folding (warm-up, dedup, flaps, close/reopen), the
// four built-in detectors over synthetic series, the JSON/text renderers,
// and a TSan-targeted concurrent scrape through a shared MetricsRegistry
// (the documented single-sampler ingest pattern).
#include "obs/health.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "elmo/controller.h"
#include "elmo/stream.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/fabric.h"
#include "topology/clos.h"

namespace elmo::obs {
namespace {

// --- TimeSeriesStore -------------------------------------------------------

TEST(HealthTimeSeries, RingWrapsAroundAtCapacity) {
  TimeSeriesStore store{4};
  for (int i = 0; i < 10; ++i) {
    store.append("s", static_cast<double>(i));
    store.advance();
  }
  EXPECT_EQ(store.window(), 10u);
  ASSERT_EQ(store.samples("s"), 4u);  // only the newest `capacity` survive
  for (std::size_t back = 0; back < 4; ++back) {
    const auto* sample = store.at("s", back);
    ASSERT_NE(sample, nullptr);
    EXPECT_EQ(sample->window, 9u - back);
    EXPECT_EQ(sample->value, static_cast<double>(9 - back));
  }
  EXPECT_EQ(store.at("s", 4), nullptr);  // fell off the ring
  EXPECT_EQ(store.delta("s", 3), 3.0);
  EXPECT_FALSE(store.delta("s", 4).has_value());
}

TEST(HealthTimeSeries, RingBoundaryAtExactlyCapacity) {
  // Exactly `capacity` windows: nothing has fallen off yet, and the oldest
  // sample is still addressable — the wrap must begin on window capacity+1,
  // not capacity.
  TimeSeriesStore store{4};
  for (int i = 0; i < 4; ++i) {
    store.append("s", static_cast<double>(i));
    store.advance();
  }
  EXPECT_EQ(store.window(), 4u);
  ASSERT_EQ(store.samples("s"), 4u);
  const auto* oldest = store.at("s", 3);
  ASSERT_NE(oldest, nullptr);
  EXPECT_EQ(oldest->window, 0u);
  EXPECT_EQ(oldest->value, 0.0);
  EXPECT_EQ(store.delta("s", 3), 3.0);  // full-span delta still computable

  // One more window evicts exactly the oldest sample.
  store.append("s", 4.0);
  store.advance();
  ASSERT_EQ(store.samples("s"), 4u);
  EXPECT_EQ(store.at("s", 3)->window, 1u);
  EXPECT_EQ(store.at("s", 4), nullptr);
}

TEST(HealthTimeSeries, SameWindowReappendOverwrites) {
  TimeSeriesStore store{8};
  store.append("s", 1.0);
  store.append("s", 2.0);  // re-scrape within one window is idempotent
  store.advance();
  ASSERT_EQ(store.samples("s"), 1u);
  EXPECT_EQ(store.last("s")->value, 2.0);
}

TEST(HealthTimeSeries, EwmaWarmupGate) {
  TimeSeriesStore store{8};
  for (int i = 0; i < 2; ++i) {
    store.append("lag", 0.2);
    store.advance();
  }
  EXPECT_FALSE(store.ewma_value("lag", 0.5, 3).has_value());
  store.append("lag", 0.2);
  store.advance();
  const auto smoothed = store.ewma_value("lag", 0.5, 3);
  ASSERT_TRUE(smoothed.has_value());
  EXPECT_DOUBLE_EQ(*smoothed, 0.2);  // constant series smooths to itself
}

TEST(HealthTimeSeries, IngestScrapesRegistrySnapshot) {
  MetricsRegistry reg;
  const auto c = reg.counter("reqs_total");
  const auto h = reg.histogram("lat_seconds", {0.1, 1.0});
  reg.add(c, 7);
  reg.observe(h, 0.05);
  reg.observe(h, 0.5);

  TimeSeriesStore store{8};
  store.ingest(reg.snapshot());
  EXPECT_EQ(store.last("reqs_total")->value, 7.0);
  // Histograms ingest as their observation count.
  EXPECT_EQ(store.last("lat_seconds")->value, 2.0);
}

// --- HealthMonitor incident folding ---------------------------------------

// Fires a fixed finding whenever the store's completed-window count is in
// `fire` — the knob the folding tests script against.
class ScriptedDetector final : public Detector {
 public:
  ScriptedDetector(std::set<std::uint64_t> fire, std::string element = "elt")
      : fire_{std::move(fire)}, element_{std::move(element)} {}
  const char* name() const override { return "scripted"; }
  void scan(const TimeSeriesStore& store, std::vector<Finding>& out) override {
    if (!fire_.contains(store.window())) return;
    Finding f;
    f.klass = "scripted";
    f.severity = Severity::kWarning;
    f.element = element_;
    f.summary = "scripted condition";
    f.evidence.push_back(Evidence{"series", 2, 1, "note"});
    out.push_back(std::move(f));
  }

 private:
  std::set<std::uint64_t> fire_;
  std::string element_;
};

// One advance + tick, i.e. one closed sampling window.
std::vector<std::size_t> step(TimeSeriesStore& store, HealthMonitor& mon) {
  store.advance();
  return mon.tick();
}

TEST(HealthMonitorFolding, WarmupSuppressesEarlyFindings) {
  TimeSeriesStore store{8};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 3}};
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(step(store, mon).empty());  // window 1: warming up
  EXPECT_TRUE(step(store, mon).empty());  // window 2: warming up
  EXPECT_EQ(step(store, mon).size(), 1u);  // window 3: first real tick
  EXPECT_EQ(mon.incidents().size(), 1u);
  EXPECT_EQ(mon.incidents()[0].first_window, 3u);
}

TEST(HealthMonitorFolding, PersistentConditionIsOneIncident) {
  TimeSeriesStore store{8};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0}};
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1, 2, 3, 4, 5}));
  std::size_t opened = 0;
  for (int i = 0; i < 5; ++i) opened += step(store, mon).size();
  EXPECT_EQ(opened, 1u);  // opened once, then merged
  ASSERT_EQ(mon.incidents().size(), 1u);
  const auto& inc = mon.incidents()[0];
  EXPECT_EQ(inc.windows_active, 5u);
  EXPECT_EQ(inc.first_window, 1u);
  EXPECT_EQ(inc.last_window, 5u);
  EXPECT_EQ(inc.flaps, 0u);
  EXPECT_TRUE(inc.open);
}

TEST(HealthMonitorFolding, FlapIsSuppressedIntoOneIncident) {
  TimeSeriesStore store{16};
  // close_after large enough that the gaps never close the incident.
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0,
                                                .close_after = 10}};
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1, 3, 5}));  // oscillating condition
  std::size_t opened = 0;
  for (int i = 0; i < 6; ++i) opened += step(store, mon).size();
  EXPECT_EQ(opened, 1u);  // never re-opened — it never closed
  ASSERT_EQ(mon.incidents().size(), 1u);
  const auto& inc = mon.incidents()[0];
  EXPECT_EQ(inc.flaps, 2u);  // two quiet gaps while open
  EXPECT_EQ(inc.windows_active, 3u);
}

TEST(HealthMonitorFolding, CloseAfterQuietThenReopenCountsAFlap) {
  TimeSeriesStore store{16};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0,
                                                .close_after = 2}};
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1, 6}));
  EXPECT_EQ(step(store, mon).size(), 1u);   // window 1: opens
  EXPECT_TRUE(step(store, mon).empty());    // window 2: quiet
  EXPECT_TRUE(step(store, mon).empty());    // window 3: closes (1 + 2)
  EXPECT_FALSE(mon.incidents()[0].open);
  EXPECT_EQ(mon.open_count(), 0u);
  step(store, mon);                          // windows 4, 5: still quiet
  step(store, mon);
  EXPECT_EQ(step(store, mon).size(), 1u);   // window 6: reopens, not a copy
  ASSERT_EQ(mon.incidents().size(), 1u);
  EXPECT_TRUE(mon.incidents()[0].open);
  EXPECT_EQ(mon.incidents()[0].flaps, 1u);
  EXPECT_EQ(mon.open_count(), 1u);
}

TEST(HealthMonitorFolding, DistinctElementsAreDistinctIncidents) {
  TimeSeriesStore store{8};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0}};
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1}, "elt-a"));
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1}, "elt-b"));
  EXPECT_EQ(step(store, mon).size(), 2u);
  EXPECT_EQ(mon.incidents().size(), 2u);
}

TEST(HealthMonitorFolding, SameTickDuplicateMergesSeverityOnly) {
  TimeSeriesStore store{8};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0}};
  // Two detectors reporting the same (class, element) in one tick.
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1}));
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1}));
  EXPECT_EQ(step(store, mon).size(), 1u);
  ASSERT_EQ(mon.incidents().size(), 1u);
  EXPECT_EQ(mon.incidents()[0].windows_active, 1u);  // not double-counted
}

// --- built-in detectors over synthetic series ------------------------------

// Appends one window's worth of cumulative values and ticks.
struct SeriesDriver {
  TimeSeriesStore store{16};
  HealthMonitor mon;
  explicit SeriesDriver(std::unique_ptr<Detector> detector)
      : mon{store, HealthMonitorOptions{.warmup_windows = 0}} {
    mon.add_detector(std::move(detector));
  }
  std::vector<std::size_t> window(
      std::initializer_list<std::pair<const char*, double>> values) {
    for (const auto& [name, value] : values) store.append(name, value);
    store.advance();
    return mon.tick();
  }
};

TEST(HealthDetectors, LossRateLocalizesConservationDeficit) {
  SeriesDriver d{make_loss_rate_detector()};
  d.window({{"elmo_link_host_leaf_tx_total", 0},
            {"elmo_link_spine_leaf_tx_total", 0},
            {"elmo_dp_leaf_packets_in_total", 0}});
  // 100 copies put on the wire towards leaves, 90 processed: 10% gray loss.
  const auto opened = d.window({{"elmo_link_host_leaf_tx_total", 40},
                                {"elmo_link_spine_leaf_tx_total", 60},
                                {"elmo_dp_leaf_packets_in_total", 90}});
  ASSERT_EQ(opened.size(), 1u);
  const auto& inc = d.mon.incidents()[0];
  EXPECT_EQ(inc.klass, kLinkLossClass);
  EXPECT_EQ(inc.element, "layer-in:leaf");
  EXPECT_EQ(inc.severity, Severity::kCritical);  // 10% >= 5%
  ASSERT_FALSE(inc.evidence.empty());
  EXPECT_EQ(inc.evidence[0].series, "derived:loss_rate");
  EXPECT_NEAR(inc.evidence[0].observed, 0.10, 1e-9);
}

TEST(HealthDetectors, LossRateIgnoresThinTraffic) {
  SeriesDriver d{make_loss_rate_detector()};
  d.window({{"elmo_link_host_leaf_tx_total", 0},
            {"elmo_link_spine_leaf_tx_total", 0},
            {"elmo_dp_leaf_packets_in_total", 0}});
  // 40 transmissions is under min_transmissions=50: too thin to judge.
  EXPECT_TRUE(d.window({{"elmo_link_host_leaf_tx_total", 40},
                        {"elmo_link_spine_leaf_tx_total", 0},
                        {"elmo_dp_leaf_packets_in_total", 20}})
                  .empty());
}

TEST(HealthDetectors, StuckElementNeedsConsecutiveWindows) {
  SeriesDriver d{make_stuck_element_detector()};
  d.window({{"elmo_dp_spine_packets_in_total", 0},
            {"elmo_dp_spine_copies_out_total", 0}});
  // Ingress advances, egress flat — but only ONE such delta so far.
  EXPECT_TRUE(d.window({{"elmo_dp_spine_packets_in_total", 50},
                        {"elmo_dp_spine_copies_out_total", 0}})
                  .empty());
  const auto opened = d.window({{"elmo_dp_spine_packets_in_total", 100},
                                {"elmo_dp_spine_copies_out_total", 0}});
  ASSERT_EQ(opened.size(), 1u);
  const auto& inc = d.mon.incidents()[0];
  EXPECT_EQ(inc.klass, kStuckElementClass);
  EXPECT_EQ(inc.element, "layer:spine");
  EXPECT_EQ(inc.severity, Severity::kCritical);
}

TEST(HealthDetectors, FanoutAnomalyComparesAgainstExpectation) {
  SeriesDriver d{make_fanout_anomaly_detector()};
  d.window({{"elmo_expect_vm_deliveries_total", 0},
            {"elmo_dp_host_vm_deliveries_total", 0}});
  // Delivered exactly what the oracle expected: silent.
  EXPECT_TRUE(d.window({{"elmo_expect_vm_deliveries_total", 1000},
                        {"elmo_dp_host_vm_deliveries_total", 1000}})
                  .empty());
  // 10% short of the expectation: critical.
  const auto opened = d.window({{"elmo_expect_vm_deliveries_total", 2000},
                                {"elmo_dp_host_vm_deliveries_total", 1900}});
  ASSERT_EQ(opened.size(), 1u);
  EXPECT_EQ(d.mon.incidents()[0].klass, kFanoutAnomalyClass);
  EXPECT_EQ(d.mon.incidents()[0].element, "hosts");
  EXPECT_EQ(d.mon.incidents()[0].severity, Severity::kCritical);
}

TEST(HealthDetectors, ChurnLagWaitsOutEwmaWarmup) {
  SeriesDriver d{make_churn_lag_detector()};
  // Breaching from the first sample, but min_samples=3 gates the verdict.
  EXPECT_TRUE(
      d.window({{"elmo_stream_install_lag_p99_seconds", 0.2}}).empty());
  EXPECT_TRUE(
      d.window({{"elmo_stream_install_lag_p99_seconds", 0.2}}).empty());
  const auto opened =
      d.window({{"elmo_stream_install_lag_p99_seconds", 0.2}});
  ASSERT_EQ(opened.size(), 1u);
  const auto& inc = d.mon.incidents()[0];
  EXPECT_EQ(inc.klass, kChurnLagClass);
  EXPECT_EQ(inc.element, "stream:install-lag");
  EXPECT_EQ(inc.severity, Severity::kCritical);  // 0.2s > 2 x 50ms
}

TEST(HealthDetectors, CleanBalancedSeriesRaiseNothing) {
  TimeSeriesStore store{16};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0}};
  add_default_detectors(mon);
  double total = 0;
  for (int w = 0; w < 6; ++w) {
    total += 500;  // every counter conserved, deliveries == expectation
    store.append("elmo_link_host_leaf_tx_total", total);
    store.append("elmo_link_spine_leaf_tx_total", total);
    store.append("elmo_dp_leaf_packets_in_total", 2 * total);
    store.append("elmo_dp_leaf_copies_out_total", 2 * total);
    store.append("elmo_dp_spine_packets_in_total", total);
    store.append("elmo_dp_spine_copies_out_total", total);
    store.append("elmo_link_leaf_spine_tx_total", total);
    store.append("elmo_link_leaf_host_tx_total", total);
    store.append("elmo_dp_host_received_total", total);
    store.append("elmo_expect_vm_deliveries_total", total);
    store.append("elmo_dp_host_vm_deliveries_total", total);
    store.append("elmo_stream_install_lag_p99_seconds", 0.010);
    store.advance();
    EXPECT_TRUE(mon.tick().empty()) << "false positive in window " << w;
  }
  EXPECT_TRUE(mon.incidents().empty());
}

// --- renderers -------------------------------------------------------------

TEST(HealthRender, JsonGolden) {
  TimeSeriesStore store{8};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0}};
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1}));
  step(store, mon);
  mon.attach_explanation(0, "send #0 \"quoted\"");
  const std::string expected =
      "{\n"
      "  \"window\": 1,\n"
      "  \"open\": 1,\n"
      "  \"incidents\": [\n"
      "    {\"class\": \"scripted\", \"severity\": \"warning\", "
      "\"element\": \"elt\", \"summary\": \"scripted condition\",\n"
      "     \"first_window\": 1, \"last_window\": 1, \"windows_active\": 1, "
      "\"flaps\": 0, \"open\": true,\n"
      "     \"evidence\": [\n"
      "       {\"series\": \"series\", \"observed\": 2, \"threshold\": 1, "
      "\"note\": \"note\"}\n"
      "     ],\n"
      "     \"explanation\": \"send #0 \\\"quoted\\\"\"}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(mon.render_json(), expected);
}

TEST(HealthRender, EmptyJsonIsValid) {
  TimeSeriesStore store{8};
  HealthMonitor mon{store};
  EXPECT_EQ(mon.render_json(),
            "{\n  \"window\": 0,\n  \"open\": 0,\n  \"incidents\": []\n}\n");
}

TEST(HealthRender, TextTimelineShowsLifecycleAndExplanation) {
  TimeSeriesStore store{8};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0}};
  mon.add_detector(std::make_unique<ScriptedDetector>(
      std::set<std::uint64_t>{1, 2}));
  step(store, mon);
  step(store, mon);
  mon.attach_explanation(0, "walk line 1\nwalk line 2");
  const auto text = mon.render_text();
  EXPECT_NE(text.find("[warning] scripted @ elt"), std::string::npos);
  EXPECT_NE(text.find("windows 1..2 (active 2, flaps 0) OPEN"),
            std::string::npos);
  EXPECT_NE(text.find("- series: observed 2, threshold 1 (note)"),
            std::string::npos);
  EXPECT_NE(text.find("       walk line 2"), std::string::npos);
}

// --- concurrency (run under TSan in CI) ------------------------------------

// The documented health sampling pattern: writers mutate a thread-safe
// MetricsRegistry while ONE sampler thread snapshots, ingests, and ticks.
// The store and monitor stay single-threaded; the registry snapshot is the
// synchronization point this locks in.
TEST(HealthTsan, ConcurrentRegistryScrapeAndTick) {
  MetricsRegistry reg;
  const auto sent = reg.counter("elmo_dp_host_sent_total");
  const auto lat = reg.histogram("elmo_walk_seconds", {1e-4, 1e-2});
  std::atomic<bool> stop{false};

  std::thread writer{[&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      reg.add(sent);
      reg.observe(lat, 1e-3);
    }
  }};

  TimeSeriesStore store{32};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0}};
  add_default_detectors(mon);
  for (int w = 0; w < 50; ++w) {
    store.ingest(reg.snapshot());
    (void)mon.tick();
  }
  stop.store(true);
  writer.join();

  EXPECT_EQ(store.window(), 50u);
  EXPECT_GE(store.samples("elmo_dp_host_sent_total"), 1u);
  // Monotonic counters and no fabric series: nothing to alert on.
  EXPECT_TRUE(mon.incidents().empty());
}

// Detectors sampling concurrently with a fabric walk: the walker thread
// publishes send spans into the global registry while the sampler thread
// snapshots, ingests, and ticks. The registry's per-thread shards are the
// only shared state — the walk's fabric is never read by the sampler.
TEST(HealthTsan, SamplerRunsConcurrentlyWithWalk) {
  topo::ClosTopology topology{topo::ClosParams::small_test()};
  Controller controller{topology, EncoderConfig{}};
  std::vector<Member> members;
  for (topo::HostId h = 0; h < 8; ++h) {
    members.push_back(Member{h, static_cast<std::uint32_t>(h),
                             MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  sim::Fabric fabric{topology};
  stream::ControlPlane{controller, fabric}.sync(std::array{id});
  const auto address = controller.group(id).address;

  auto& reg = MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);

  std::atomic<bool> done{false};
  std::thread walker{[&] {
    for (int i = 0; i < 40 * 32; ++i) {
      (void)fabric.send(0, address, std::size_t{64});
    }
    done.store(true, std::memory_order_release);
  }};

  TimeSeriesStore store{64};
  HealthMonitor mon{store, HealthMonitorOptions{.warmup_windows = 0}};
  add_default_detectors(mon);
  while (!done.load(std::memory_order_acquire)) {
    store.ingest(reg.snapshot());
    (void)mon.tick();
  }
  walker.join();
  store.ingest(reg.snapshot());  // final scrape sees every send
  (void)mon.tick();
  reg.set_enabled(was_enabled);

  EXPECT_GE(store.samples("elmo_fabric_send_seconds"), 1u);
  EXPECT_EQ(store.last("elmo_fabric_send_seconds")->value, 1280.0);
  // The global registry carries no elmo_link_*/elmo_dp_* series here, so a
  // clean concurrent run must stay incident-free.
  EXPECT_TRUE(mon.incidents().empty());
}

}  // namespace
}  // namespace elmo::obs
