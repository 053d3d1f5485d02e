// Extension coverage: two-tier leaf-spine fabrics, loss injection with the
// PGM-style reliability layer (and mtrace of a lossy probe), and
// multi-datacenter relay multicast.
#include <gtest/gtest.h>

#include <array>

#include "apps/multidc.h"
#include "apps/reliable.h"
#include "elmo/evaluator.h"
#include "elmo/stream.h"
#include "obs/provenance.h"
#include "sim/fabric.h"
#include "sim/mtrace.h"
#include "testutil.h"

namespace elmo {
namespace {

// --- two-tier leaf-spine (paper: "qualitatively similar results") ----------

TEST(TwoTier, EncodingHasNoCoreSection) {
  const topo::ClosTopology t{topo::ClosParams::two_tier_leaf_spine()};
  const std::vector<topo::HostId> members{0, 40, 500, 900};
  const MulticastTree tree{t, members};
  EXPECT_FALSE(tree.spans_multiple_pods());
  const auto enc = tree.sender_encoding(0);
  EXPECT_FALSE(enc.core_pods);
  ASSERT_TRUE(enc.u_spine);
  EXPECT_FALSE(enc.u_spine->multipath);  // nothing above the spine tier
}

TEST(TwoTier, CrosscheckFabricVsEvaluator) {
  const topo::ClosTopology t{topo::ClosParams::two_tier_leaf_spine()};
  Controller controller{t, EncoderConfig{}};
  sim::Fabric fabric{t};
  const TrafficEvaluator evaluator{t};
  util::Rng rng{606};

  for (int trial = 0; trial < 10; ++trial) {
    const auto hosts = test::random_hosts(t, 3 + rng.index(40), rng);
    std::vector<Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                               MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
    const auto& g = controller.group(id);

    const auto fr = fabric.send(hosts[0], g.address, 512);
    const auto report = evaluator.evaluate(
        *g.tree, g.encoding, hosts[0], 512,
        topo::group_hash(g.address));
    EXPECT_EQ(fr.total_wire_bytes, report.elmo_wire_bytes);
    EXPECT_TRUE(report.delivery.exactly_once());
    controller.remove_group(id);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
  }
}

// --- loss injection + reliability layer ------------------------------------

struct LossFixture : ::testing::Test {
  LossFixture()
      : topology{topo::ClosParams::small_test()},
        controller{topology, EncoderConfig{}},
        fabric{topology} {}

  GroupId make_group(const std::vector<topo::HostId>& hosts) {
    std::vector<Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                               MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
    return id;
  }

  topo::ClosTopology topology;
  Controller controller;
  sim::Fabric fabric;
};

TEST_F(LossFixture, LossDropsSomeDeliveries) {
  const auto id = make_group({0, 17, 33, 49, 5, 21});
  fabric.set_loss(0.4, /*seed=*/9);
  std::size_t delivered = 0;
  for (int i = 0; i < 20; ++i) {
    delivered +=
        fabric.send(0, controller.group(id).address, 100).host_copies.size();
  }
  EXPECT_LT(delivered, 20u * 5u);  // strictly lossy
  EXPECT_GT(delivered, 0u);
}

TEST_F(LossFixture, ZeroLossIsLossless) {
  const auto id = make_group({0, 17, 33});
  fabric.set_loss(0.0);
  const auto result = fabric.send(0, controller.group(id).address, 100);
  EXPECT_EQ(result.host_copies.size(), 2u);
}

TEST_F(LossFixture, ReliableSessionRecoversEverything) {
  const auto id = make_group({0, 17, 33, 49, 5, 21, 37});
  fabric.set_loss(0.25, /*seed=*/31);
  apps::ReliableMulticastSession session{fabric, controller, id, 0};
  // NAKs and repairs are themselves lossy (25% per link over up-to-6-hop
  // paths), so convergence takes many cheap rounds.
  const auto report =
      session.publish(/*messages=*/25, /*payload=*/256, /*max_rounds=*/400);
  EXPECT_TRUE(report.all_delivered)
      << "rounds=" << report.repair_rounds
      << " retx=" << report.retransmissions;
  EXPECT_GT(report.naks, 0u);            // losses actually happened
  EXPECT_GT(report.retransmissions, 0u);
  EXPECT_EQ(report.data_multicasts, 25u);
}

TEST_F(LossFixture, ReliableSessionIsFreeWithoutLoss) {
  const auto id = make_group({0, 17, 33});
  fabric.set_loss(0.0);
  apps::ReliableMulticastSession session{fabric, controller, id, 0};
  const auto report = session.publish(10, 256);
  EXPECT_TRUE(report.all_delivered);
  EXPECT_EQ(report.naks, 0u);
  EXPECT_EQ(report.retransmissions, 0u);
  EXPECT_EQ(report.repair_rounds, 1u);  // one verification round
}

TEST_F(LossFixture, MtraceShowsLostCopiesInWalkOrder) {
  // A lossy probe's tree lists every copy put on a link, lost or not, so
  // each link counter grows by exactly the hops mtrace shows on it. The
  // provenance log files a lost copy when it is emitted and a delivered one
  // when it is dequeued, but keeps each parent's children in port (NodeRef)
  // order, so mtrace lists siblings in that order. The fabric's own log
  // neither sees the probes nor stays detached.
  const auto id = make_group({0, 1, 2, 3, 17, 33, 49, 5, 21});
  fabric.set_loss(0.3, /*seed=*/5);
  obs::ProvenanceLog log;
  fabric.set_provenance(&log);
  std::uint64_t lost = 0;
  for (int probe = 0; probe < 20; ++probe) {
    const auto before = fabric.links();
    const auto lost_before = fabric.walk_stats().lost_copies;
    const auto report = sim::mtrace(fabric, controller, id, 0, 64);
    lost += fabric.walk_stats().lost_copies - lost_before;

    auto expected = before;
    for (const auto& hop : report.hops) {
      auto& link = expected[{hop.from, hop.to}];
      ++link.packets;
      link.bytes += hop.bytes;
    }
    EXPECT_EQ(fabric.links(), expected) << "probe " << probe;
    for (std::size_t i = 1; i < report.hops.size(); ++i) {
      const auto& prev = report.hops[i - 1];
      const auto& hop = report.hops[i];
      if (hop.from == prev.from) {
        EXPECT_LT(prev.to, hop.to) << "probe " << probe << " hop " << i;
      } else {
        EXPECT_LE(prev.depth, hop.depth) << "probe " << probe << " hop " << i;
      }
    }
  }
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(fabric.provenance(), &log);
  EXPECT_TRUE(log.empty());
}

// --- multi-datacenter relay --------------------------------------------------

TEST(MultiDc, SpansTwoDatacenters) {
  const topo::ClosTopology topo_a{topo::ClosParams::small_test()};
  const topo::ClosTopology topo_b{topo::ClosParams::small_test()};
  Controller ctrl_a{topo_a, EncoderConfig{}};
  Controller ctrl_b{topo_b, EncoderConfig{}};
  sim::Fabric fab_a{topo_a};
  sim::Fabric fab_b{topo_b};

  apps::MultiDcGroup group{
      {{&fab_a, &ctrl_a}, {&fab_b, &ctrl_b}},
      /*tenant=*/3,
      {{0, 5, 17}, {2, 33, 49}}};

  const auto report = group.send(/*src_dc=*/0, /*src=*/0, /*payload=*/300);
  // 2 local members + 3 remote members (incl. relay) reached.
  EXPECT_EQ(report.hosts_reached, 5u);
  EXPECT_EQ(report.wan_unicasts, 1u);
  EXPECT_EQ(report.wan_wire_bytes, net::kOuterHeaderBytes + 300u);
  EXPECT_GT(report.intra_dc_wire_bytes, 0u);
}

TEST(MultiDc, EmptyRemoteDcCostsNothing) {
  const topo::ClosTopology topo_a{topo::ClosParams::small_test()};
  const topo::ClosTopology topo_b{topo::ClosParams::small_test()};
  Controller ctrl_a{topo_a, EncoderConfig{}};
  Controller ctrl_b{topo_b, EncoderConfig{}};
  sim::Fabric fab_a{topo_a};
  sim::Fabric fab_b{topo_b};

  apps::MultiDcGroup group{{{&fab_a, &ctrl_a}, {&fab_b, &ctrl_b}},
                           3,
                           {{0, 5}, {}}};
  const auto report = group.send(0, 0, 100);
  EXPECT_EQ(report.wan_unicasts, 0u);
  EXPECT_EQ(report.hosts_reached, 1u);
}

TEST(MultiDc, SendFromSecondDcRelaysBack) {
  const topo::ClosTopology topo_a{topo::ClosParams::small_test()};
  const topo::ClosTopology topo_b{topo::ClosParams::small_test()};
  Controller ctrl_a{topo_a, EncoderConfig{}};
  Controller ctrl_b{topo_b, EncoderConfig{}};
  sim::Fabric fab_a{topo_a};
  sim::Fabric fab_b{topo_b};

  apps::MultiDcGroup group{{{&fab_a, &ctrl_a}, {&fab_b, &ctrl_b}},
                           3,
                           {{0, 5}, {2, 33}}};
  const auto report = group.send(/*src_dc=*/1, /*src=*/33, 100);
  EXPECT_EQ(report.hosts_reached, 3u);  // DC-B: host 2; DC-A: hosts 0, 5
  EXPECT_EQ(report.wan_unicasts, 1u);
}

}  // namespace
}  // namespace elmo
