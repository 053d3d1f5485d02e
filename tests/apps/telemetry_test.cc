#include "apps/telemetry.h"

#include <gtest/gtest.h>

#include "obs/timeseries.h"
#include "testutil.h"

namespace elmo::apps {
namespace {

struct TelemetryFixture : ::testing::Test {
  TelemetryFixture()
      : topology{topo::ClosParams::small_test()},
        controller{topology, elmo::EncoderConfig{}},
        fabric{topology} {}

  std::vector<topo::HostId> collectors(std::size_t n) {
    util::Rng rng{7};
    std::vector<topo::HostId> out;
    for (const auto h : test::random_hosts(topology, n + 1, rng)) {
      if (h != 1 && out.size() < n) out.push_back(h);
    }
    return out;
  }

  topo::ClosTopology topology;
  elmo::Controller controller;
  sim::Fabric fabric;
};

TEST_F(TelemetryFixture, UnicastEgressGrowsLinearly) {
  TelemetrySystem t4{fabric, controller, 1, 1, collectors(4)};
  const auto m4 = t4.run(false, TelemetryConfig{}, 3);
  TelemetrySystem t8{fabric, controller, 1, 1, collectors(8)};
  const auto m8 = t8.run(false, TelemetryConfig{}, 3);
  EXPECT_NEAR(m8.agent_egress_bps / m4.agent_egress_bps, 2.0, 0.01);
}

TEST_F(TelemetryFixture, ElmoEgressStaysNearConstant) {
  TelemetrySystem t2{fabric, controller, 1, 1, collectors(2)};
  const auto m2 = t2.run(true, TelemetryConfig{}, 3);
  TelemetrySystem t16{fabric, controller, 1, 1, collectors(16)};
  const auto m16 = t16.run(true, TelemetryConfig{}, 3);
  // Header grows slightly with group spread, but nothing like 8x.
  EXPECT_LT(m16.agent_egress_bps, m2.agent_egress_bps * 1.6);
}

TEST_F(TelemetryFixture, DatagramsActuallyDelivered) {
  const auto c = collectors(6);
  TelemetrySystem system{fabric, controller, 1, 1, c};
  const auto elmo_metrics = system.run(true, TelemetryConfig{}, 2);
  EXPECT_EQ(elmo_metrics.datagrams_delivered, 2 * c.size());
  const auto unicast_metrics = system.run(false, TelemetryConfig{}, 2);
  EXPECT_EQ(unicast_metrics.datagrams_delivered, 2 * c.size());
}

TEST_F(TelemetryFixture, PerCollectorStreamMatchesPaperCalibration) {
  // ~5.76 Kbps per collector stream (paper: 370.4/64 = 5.79 Kbps).
  TelemetrySystem system{fabric, controller, 1, 1, collectors(1)};
  const auto metrics = system.run(false, TelemetryConfig{}, 1);
  EXPECT_NEAR(metrics.per_collector_ingress_bps, 5760.0, 1.0);
  EXPECT_NEAR(metrics.agent_egress_bps, 5760.0, 1.0);
}

TEST_F(TelemetryFixture, SixtyFourCollectorsMatchesPaperShape) {
  // Paper §5.2.2: 64 collectors -> ~370 Kbps unicast vs ~5.8 Kbps Elmo.
  const auto c = collectors(60);  // small fabric caps us near 64
  TelemetrySystem system{fabric, controller, 1, 1, c};
  const auto uni = system.run(false, TelemetryConfig{}, 1);
  const auto elmo_metrics = system.run(true, TelemetryConfig{}, 1);
  EXPECT_GT(uni.agent_egress_bps, 300'000.0);
  EXPECT_LT(elmo_metrics.agent_egress_bps, 12'000.0);
}

TEST_F(TelemetryFixture, LinkSeriesStayMonotonicThroughARun) {
  // The health detectors read the link series as deltas between samples,
  // so a run must add to the link counters, never reset them. Traffic
  // before the first sample makes a reset visible as a decrease.
  const auto c = collectors(8);
  TelemetrySystem system{fabric, controller, 1, 1, c};
  const auto fresh = system.run(true, TelemetryConfig{}, 2);
  (void)system.run(false, TelemetryConfig{}, 3);

  obs::TimeSeriesStore store;
  fabric.sample_into(store);
  store.advance();
  const auto again = system.run(true, TelemetryConfig{}, 2);
  fabric.sample_into(store);

  // Two Elmo samples leave the agent's uplink once each; no other host
  // sends.
  EXPECT_EQ(store.delta("elmo_link_host_leaf_tx_total"), 2.0);
  const auto transmissions = store.delta("elmo_fabric_link_transmissions_total");
  ASSERT_TRUE(transmissions.has_value());
  // Each sample crosses the agent's uplink and one link into every
  // collector, at least.
  EXPECT_GE(*transmissions, 2.0 * static_cast<double>(1 + c.size()));
  // A run measures only its own uplink bytes, whatever came before it.
  EXPECT_EQ(again.agent_egress_bps, fresh.agent_egress_bps);
  EXPECT_EQ(again.datagrams_delivered, 2 * c.size());
}

}  // namespace
}  // namespace elmo::apps
