// Multipath schemes behind the Elmo multipath flag (paper D2b: ECMP, or a
// HULA/CONGA-style utilization-aware choice).
#include <gtest/gtest.h>

#include "dataplane/hypervisor_switch.h"
#include "dataplane/network_switch.h"
#include "elmo/controller.h"
#include "testutil.h"

namespace elmo::dp {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

// Builds an upstream multicast packet from `sender` for a cross-pod group.
net::Packet upstream_packet(const topo::ClosTopology& t,
                            Controller& controller, elmo::GroupId id,
                            topo::HostId sender) {
  const auto& g = controller.group(id);
  HypervisorSwitch hv{t, sender};
  HypervisorSwitch::GroupFlow flow;
  flow.elmo_header = controller.header_for(id, sender);
  hv.install_flow(g.address, flow);
  return *hv.encapsulate(g.address, std::vector<std::uint8_t>(64, 0));
}

struct MultipathFixture : ::testing::Test {
  MultipathFixture() : topology{small()}, controller{topology, EncoderConfig{}} {
    // Cross-pod group whose senders all live under leaf 0 (hosts 0..3).
    std::vector<Member> members;
    for (std::uint32_t i = 0; i < 4; ++i) {
      members.push_back(Member{i, i, MemberRole::kSender});
    }
    members.push_back(Member{17, 4, MemberRole::kReceiver});
    members.push_back(Member{33, 5, MemberRole::kReceiver});
    group = controller.create_group(0, members);
  }

  topo::ClosTopology topology;
  Controller controller;
  elmo::GroupId group = 0;
};

TEST_F(MultipathFixture, EcmpIsDeterministicPerFlow) {
  NetworkSwitch leaf{topology, topo::Layer::kLeaf, 0};
  ASSERT_EQ(leaf.multipath_mode(), MultipathMode::kEcmp);
  const auto packet = upstream_packet(topology, controller, group, 0);
  const auto first = test::forward(leaf, packet);
  const auto second = test::forward(leaf, packet);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].out_port, second[0].out_port);  // same flow, same path
}

TEST_F(MultipathFixture, LeastLoadedAlternatesUplinks) {
  NetworkSwitch leaf{topology, topo::Layer::kLeaf, 0};
  leaf.set_multipath_mode(MultipathMode::kLeastLoaded);
  const auto packet = upstream_packet(topology, controller, group, 0);
  // The same flow, repeated: the HULA-style switch balances both uplinks.
  for (int i = 0; i < 10; ++i) test::forward(leaf, packet);
  const auto load0 = leaf.uplink_load(0);
  const auto load1 = leaf.uplink_load(1);
  EXPECT_GT(load0, 0u);
  EXPECT_GT(load1, 0u);
  const auto hi = std::max(load0, load1);
  const auto lo = std::min(load0, load1);
  EXPECT_LE(hi - lo, hi / 4);  // near-even split
}

TEST_F(MultipathFixture, LeastLoadedBeatsEcmpOnSkewedFlows) {
  // Four senders whose ECMP hashes may collide; least-loaded never lets one
  // uplink carry more than ~half the bytes (+1 packet of slack).
  NetworkSwitch ecmp_leaf{topology, topo::Layer::kLeaf, 0};
  NetworkSwitch hula_leaf{topology, topo::Layer::kLeaf, 0};
  hula_leaf.set_multipath_mode(MultipathMode::kLeastLoaded);

  std::uint64_t total = 0;
  for (topo::HostId sender = 0; sender < 4; ++sender) {
    const auto packet = upstream_packet(topology, controller, group, sender);
    for (int i = 0; i < 5; ++i) {
      test::forward(ecmp_leaf, packet);
      test::forward(hula_leaf, packet);
      total += packet.size();
    }
  }
  const auto hula_max =
      std::max(hula_leaf.uplink_load(0), hula_leaf.uplink_load(1));
  const auto ecmp_max =
      std::max(ecmp_leaf.uplink_load(0), ecmp_leaf.uplink_load(1));
  EXPECT_LE(hula_max, total / 2 + 200);
  EXPECT_LE(hula_max, ecmp_max);  // never worse than hashing
}

TEST_F(MultipathFixture, ExplicitUplinksBypassMultipathMode) {
  // Failure-path headers with explicit upstream ports ignore the scheme.
  controller.fail_spine(topology.spine_at(0, 0));
  NetworkSwitch leaf{topology, topo::Layer::kLeaf, 0};
  leaf.set_multipath_mode(MultipathMode::kLeastLoaded);
  const auto packet = upstream_packet(topology, controller, group, 0);
  for (int i = 0; i < 6; ++i) {
    const auto copies = test::forward(leaf, packet);
    for (const auto& copy : copies) {
      if (copy.out_port >= topology.leaf_down_ports()) {
        // Only the alive plane-1 spine may be used.
        EXPECT_EQ(copy.out_port, topology.leaf_down_ports() + 1);
      }
    }
  }
  EXPECT_EQ(leaf.uplink_load(0), 0u);
}

}  // namespace
}  // namespace elmo::dp
