// MetricsRegistry unit tests: registration semantics, histogram bucket
// boundaries, disabled no-ops, exposition goldens, and multi-threaded
// checks (run under TSan in CI): concurrent writers sharing one cell,
// registration racing writes and scrapes, and registries created and
// destroyed on many threads at once.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace elmo::obs {
namespace {

TEST(MetricsTest, CounterAddAndSnapshot) {
  MetricsRegistry reg;
  const auto id = reg.counter("requests_total", "requests served");
  reg.add(id);
  reg.add(id, 41);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.value("requests_total"), 42.0);
  const auto* m = snap.find("requests_total");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kCounter);
  EXPECT_EQ(m->help, "requests served");
}

TEST(MetricsTest, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  const auto a = reg.counter("shared_total");
  const auto b = reg.counter("shared_total", "later help is ignored");
  EXPECT_EQ(a, b);
  reg.add(a, 1);
  reg.add(b, 2);
  EXPECT_EQ(reg.snapshot().value("shared_total"), 3.0);
}

TEST(MetricsTest, KindMismatchThrows) {
  MetricsRegistry reg;
  (void)reg.counter("thing");
  EXPECT_THROW((void)reg.gauge("thing"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("thing", {1.0}), std::invalid_argument);
  (void)reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW((void)reg.histogram("h", {1.0, 3.0}), std::invalid_argument);
  EXPECT_EQ(reg.histogram("h", {1.0, 2.0}), reg.histogram("h", {1.0, 2.0}));
}

TEST(MetricsTest, NamesAreSanitized) {
  MetricsRegistry reg;
  // ':' is legal in Prometheus names and survives; space and '/' do not.
  const auto id = reg.counter("bad name:with/chars");
  reg.add(id);
  EXPECT_EQ(reg.snapshot().value("bad_name:with_chars"), 1.0);
}

TEST(MetricsTest, DisabledWritesAreDropped) {
  MetricsRegistry reg{/*enabled=*/false};
  const auto c = reg.counter("c_total");
  const auto h = reg.histogram("h", {1.0});
  const auto g = reg.gauge("g");
  reg.add(c, 7);
  reg.observe(h, 0.5);
  reg.gauge_set(g, 3.0);
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.value("c_total"), 0.0);
  EXPECT_EQ(snap.find("h")->observations, 0u);
  EXPECT_EQ(snap.value("g"), 0.0);

  reg.set_enabled(true);
  reg.add(c, 7);
  EXPECT_EQ(reg.snapshot().value("c_total"), 7.0);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  const auto id = reg.histogram("lat", {1.0, 10.0, 100.0});
  // Bucket i counts v <= bounds[i]; values above the last bound land in +Inf.
  for (const double v : {0.5, 1.0, 5.0, 10.0, 50.0, 1000.0}) {
    reg.observe(id, v);
  }
  const auto snap = reg.snapshot();
  const auto* m = snap.find("lat");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->bounds.size(), 3u);
  ASSERT_EQ(m->buckets.size(), 4u);  // 3 bounds + trailing +Inf
  EXPECT_EQ(m->buckets[0], 2u);      // 0.5, 1.0 (== bound is inclusive)
  EXPECT_EQ(m->buckets[1], 2u);      // 5.0, 10.0
  EXPECT_EQ(m->buckets[2], 1u);      // 50.0
  EXPECT_EQ(m->buckets[3], 1u);      // 1000.0
  EXPECT_EQ(m->observations, 6u);
  EXPECT_DOUBLE_EQ(m->sum, 0.5 + 1.0 + 5.0 + 10.0 + 50.0 + 1000.0);
}

TEST(MetricsTest, GaugeSetAndMax) {
  MetricsRegistry reg;
  const auto g = reg.gauge("depth");
  reg.gauge_set(g, 5.0);
  reg.gauge_set(g, 2.0);
  EXPECT_EQ(reg.snapshot().value("depth"), 2.0);  // last-write-wins
  const auto hw = reg.gauge("high_water");
  reg.gauge_max(hw, 3.0);
  reg.gauge_max(hw, 9.0);
  reg.gauge_max(hw, 4.0);
  EXPECT_EQ(reg.snapshot().value("high_water"), 9.0);  // monotone
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.add(reg.counter("zzz_total"));
  reg.add(reg.counter("aaa_total"));
  reg.add(reg.counter("mmm_total"));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "aaa_total");
  EXPECT_EQ(snap.metrics[1].name, "mmm_total");
  EXPECT_EQ(snap.metrics[2].name, "zzz_total");
}

TEST(MetricsTest, PrometheusExpositionGolden) {
  MetricsRegistry reg;
  reg.add(reg.counter("walks_total", "fabric walks"), 2);
  reg.gauge_set(reg.gauge("depth"), 4.0);
  const auto h = reg.histogram("span_seconds", {1.0, 10.0}, "span latency");
  reg.observe(h, 0.5);
  reg.observe(h, 2.0);
  reg.observe(h, 99.0);

  auto snap = reg.snapshot();
  snap.uptime_seconds = 1.5;  // pin the only wall-clock-dependent line
  EXPECT_EQ(snap.prometheus(),
            "# HELP elmo_uptime_seconds Seconds since registry creation\n"
            "# TYPE elmo_uptime_seconds gauge\n"
            "elmo_uptime_seconds 1.5\n"
            "# TYPE depth gauge\n"
            "depth 4\n"
            "# HELP span_seconds span latency\n"
            "# TYPE span_seconds histogram\n"
            "span_seconds_bucket{le=\"1\"} 1\n"
            "span_seconds_bucket{le=\"10\"} 2\n"
            "span_seconds_bucket{le=\"+Inf\"} 3\n"
            "span_seconds_sum 101.5\n"
            "span_seconds_count 3\n"
            "# HELP walks_total fabric walks\n"
            "# TYPE walks_total counter\n"
            "walks_total 2\n");
}

TEST(MetricsTest, JsonDumpContainsCumulativeBuckets) {
  MetricsRegistry reg;
  const auto h = reg.histogram("h", {1.0, 10.0});
  reg.observe(h, 0.5);
  reg.observe(h, 5.0);
  auto snap = reg.snapshot();
  snap.uptime_seconds = 2.0;
  const auto json = snap.json();
  EXPECT_NE(json.find("\"uptime_seconds\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"h\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST(MetricsTest, WriteMetricsRoundTrips) {
  MetricsRegistry reg;
  reg.add(reg.counter("w_total"), 9);
  const auto snap = reg.snapshot();
  const std::string prom = testing::TempDir() + "/metrics_test.prom";
  const std::string json = testing::TempDir() + "/metrics_test.json";
  ASSERT_TRUE(write_metrics(prom, snap));
  ASSERT_TRUE(write_metrics(json, snap));
  std::stringstream got;
  got << std::ifstream{prom}.rdbuf();
  EXPECT_NE(got.str().find("w_total 9"), std::string::npos);
  got.str({});
  got << std::ifstream{json}.rdbuf();
  EXPECT_NE(got.str().find("\"w_total\""), std::string::npos);
  std::remove(prom.c_str());
  std::remove(json.c_str());
}

TEST(MetricsTest, LatencyBoundsAreStrictlyIncreasing) {
  const auto bounds = latency_bounds();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// The TSan target in CI runs this: concurrent adds/observes from many
// threads into the same cells must be race-free and aggregate exactly.
TEST(MetricsTest, ConcurrentWritesAggregateExactly) {
  MetricsRegistry reg;
  const auto c = reg.counter("concurrent_total");
  const auto h = reg.histogram("concurrent_hist", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.add(c);
        reg.observe(h, i % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.value("concurrent_total"),
            static_cast<double>(kThreads * kPerThread));
  const auto* m = snap.find("concurrent_hist");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->observations,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m->buckets[0],
            static_cast<std::uint64_t>(kThreads * kPerThread / 2));
}

// Scrapes racing writers must also be clean (a weaker guarantee — totals are
// only exact once writers stop — but TSan validates the synchronization).
TEST(MetricsTest, ConcurrentSnapshotWhileWriting) {
  MetricsRegistry reg;
  const auto c = reg.counter("racing_total");
  constexpr int kWrites = 200'000;
  std::thread writer{[&] {
    for (int i = 0; i < kWrites; ++i) reg.add(c);
  }};
  for (int i = 0; i < 50; ++i) (void)reg.snapshot();
  writer.join();
  EXPECT_EQ(reg.snapshot().value("racing_total"),
            static_cast<double>(kWrites));
}

// The cell table has a fixed capacity: registering past it throws, and the
// metrics registered before that keep working.
TEST(MetricsTest, RegistrationPastCapacityThrows) {
  MetricsRegistry reg;
  int registered = 0;
  EXPECT_THROW(
      {
        for (; registered < (1 << 16); ++registered) {
          (void)reg.counter("cap_" + std::to_string(registered) + "_total");
        }
      },
      std::length_error);
  ASSERT_GT(registered, 0);
  EXPECT_EQ(reg.counter("cap_0_total"), 0u);  // existing names still resolve
  reg.add(reg.counter("cap_0_total"), 5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.metrics.size(), static_cast<std::size_t>(registered));
  EXPECT_EQ(snap.value("cap_0_total"), 5.0);
}

// Registration racing writes and scrapes: one thread registers fresh
// counters and histograms and writes each once, three threads hammer a
// counter registered before they started, and this thread scrapes.
TEST(MetricsTest, RegistrationRacesWritesAndScrapes) {
  MetricsRegistry reg;
  const auto shared = reg.counter("shared_writes_total");
  constexpr int kFresh = 100;
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 50'000;
  std::thread registrar{[&reg] {
    for (int i = 0; i < kFresh; ++i) {
      const auto n = std::to_string(i);
      reg.add(reg.counter("fresh_" + n + "_total"), i + 1);
      reg.observe(reg.histogram("fresh_" + n + "_seconds", {1.0}), 0.5);
    }
  }};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&reg, shared] {
      for (int i = 0; i < kPerWriter; ++i) reg.add(shared);
    });
  }
  for (int i = 0; i < 50; ++i) (void)reg.snapshot();
  registrar.join();
  for (auto& th : writers) th.join();

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.metrics.size(), 1u + 2u * kFresh);
  EXPECT_EQ(snap.value("shared_writes_total"),
            static_cast<double>(kWriters * kPerWriter));
  for (int i = 0; i < kFresh; ++i) {
    const auto n = std::to_string(i);
    EXPECT_EQ(snap.value("fresh_" + n + "_total"), i + 1.0);
    const auto* h = snap.find("fresh_" + n + "_seconds");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->observations, 1u);
    EXPECT_EQ(h->buckets[0], 1u);
  }
}

// Registries created, written, scraped and destroyed on several threads at
// once: every snapshot is exact, and a registry built after another one
// died (often at the same address) starts at zero.
TEST(MetricsTest, ShortLivedRegistriesOnManyThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int r = 0; r < kRounds; ++r) {
        MetricsRegistry reg;
        const auto c = reg.counter("life_total");
        const auto h = reg.histogram("life_seconds", {1.0});
        const auto g = reg.gauge("life_max");
        const auto fresh = reg.snapshot();
        EXPECT_EQ(fresh.value("life_total"), 0.0);
        EXPECT_EQ(fresh.find("life_seconds")->observations, 0u);
        EXPECT_EQ(fresh.value("life_max"), 0.0);
        const int n = t + r + 1;
        for (int i = 0; i < n; ++i) {
          reg.add(c);
          reg.observe(h, 2.0);
          reg.gauge_max(g, i);
        }
        const auto snap = reg.snapshot();
        EXPECT_EQ(snap.value("life_total"), static_cast<double>(n));
        EXPECT_EQ(snap.find("life_seconds")->observations,
                  static_cast<std::uint64_t>(n));
        EXPECT_EQ(snap.find("life_seconds")->buckets[1],
                  static_cast<std::uint64_t>(n));
        EXPECT_EQ(snap.value("life_max"), n - 1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace elmo::obs
