// The multipath scheme behind the Elmo multipath flag (paper D2b): ECMP on
// the group hash, and explicit upstream ports that bypass it.
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
  const auto packet = upstream_packet(topology, controller, group, 0);
  const auto first = test::forward(leaf, packet);
  const auto second = test::forward(leaf, packet);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].out_port, second[0].out_port);  // same flow, same path
}

TEST_F(MultipathFixture, ExplicitUplinksBypassMultipathMode) {
  // Failure-path headers with explicit upstream ports bypass ECMP: with the
  // plane-0 spine of pod 0 down, every sender under leaf 0 goes up exactly
  // the alive plane-1 uplink, every time.
  controller.fail_spine(topology.spine_at(0, 0));
  NetworkSwitch leaf{topology, topo::Layer::kLeaf, 0};
  const auto plane1 = topology.leaf_down_ports() + 1;
  for (topo::HostId sender = 0; sender < 4; ++sender) {
    const auto packet = upstream_packet(topology, controller, group, sender);
    for (int i = 0; i < 3; ++i) {
      std::vector<std::size_t> uplinks;
      for (const auto& copy : test::forward(leaf, packet)) {
        if (copy.out_port >= topology.leaf_down_ports()) {
          uplinks.push_back(copy.out_port);
        }
      }
      EXPECT_EQ(uplinks, std::vector<std::size_t>{plane1})
          << "sender " << sender << " send " << i;
    }
  }
}

}  // namespace
}  // namespace elmo::dp
