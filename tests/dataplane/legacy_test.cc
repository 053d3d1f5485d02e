// Incremental deployment (paper §7): legacy switches forward Elmo packets
// from their group tables without parsing or popping p-rules; receiving
// hypervisors behind them strip the surviving header themselves (signalled
// by the VXLAN Elmo-present flag).
#include <gtest/gtest.h>

#include <array>

#include "dataplane/network_switch.h"
#include "elmo/controller.h"
#include "elmo/stream.h"
#include "sim/fabric.h"
#include "testutil.h"

namespace elmo::dp {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

TEST(LegacySwitch, ForwardsFromGroupTableWithoutPopping) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const std::vector<Member> members{{0, 0, MemberRole::kBoth},
                                    {5, 1, MemberRole::kBoth}};
  const auto id = controller.create_group(0, members);
  const auto& g = controller.group(id);

  // Craft the packet the sender's hypervisor would emit.
  HypervisorSwitch hv{t, 0};
  HypervisorSwitch::GroupFlow flow;
  flow.elmo_header = controller.header_for(id, 0);
  hv.install_flow(g.address, flow);
  auto packet = *hv.encapsulate(g.address, std::vector<std::uint8_t>(64, 1));

  NetworkSwitch legacy{t, topo::Layer::kLeaf, 0};
  legacy.set_legacy(true);
  EXPECT_TRUE(legacy.is_legacy());

  // Without a group-table entry the legacy switch drops.
  EXPECT_TRUE(test::forward(legacy, packet).empty());
  EXPECT_EQ(legacy.stats().drops, 1u);

  net::PortBitmap ports{t.leaf_down_ports()};
  ports.set(1);
  ports.set(2);
  legacy.install_srule(g.address, ports);
  const auto copies = test::forward(legacy, packet);
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(legacy.stats().srule_matches, 1u);
  for (const auto& copy : copies) {
    // Nothing was popped: byte-identical to the input.
    EXPECT_EQ(copy.packet.size(), packet.size());
  }
}

TEST(LegacySwitch, HypervisorSkipsUnstrippedHeader) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const std::vector<Member> members{{0, 0, MemberRole::kBoth},
                                    {5, 1, MemberRole::kBoth}};
  const auto id = controller.create_group(0, members);
  const auto& g = controller.group(id);

  HypervisorSwitch sender{t, 0};
  HypervisorSwitch::GroupFlow tx;
  tx.elmo_header = controller.header_for(id, 0);
  sender.install_flow(g.address, tx);
  const auto packet =
      *sender.encapsulate(g.address, std::vector<std::uint8_t>(200, 7));

  HypervisorSwitch receiver{t, 5};
  HypervisorSwitch::GroupFlow rx;
  rx.local_vms = {1};
  receiver.install_flow(g.address, rx);

  // Simulate a legacy leaf: the packet arrives with the Elmo header intact.
  const auto deliveries = test::receive(receiver, packet);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].payload_bytes, 200u)
      << "hypervisor must not count the surviving Elmo header as payload";
}

TEST(LegacySwitch, EncoderForcesLegacyLeavesIntoSRules) {
  const auto t = small();
  EncoderConfig cfg;
  const TreeEncoder encoder{t, cfg};
  SRuleSpace space{t, 10};
  std::vector<bool> legacy(t.num_leaves(), false);
  legacy[1] = true;  // hosts 4..7

  const std::vector<topo::HostId> hosts{0, 5, 17};
  const MulticastTree tree{t, hosts};
  const auto enc = encoder.encode(tree, &space, &legacy);

  // Leaf 1 must be an s-rule, never a p-rule.
  bool leaf1_in_prules = false;
  for (const auto& rule : enc.leaf.p_rules) {
    for (const auto rid : rule.switch_ids) {
      if (rid == 1) leaf1_in_prules = true;
    }
  }
  EXPECT_FALSE(leaf1_in_prules);
  const auto srule = std::find_if(
      enc.leaf.s_rules.begin(), enc.leaf.s_rules.end(),
      [](const auto& s) { return s.first == 1; });
  ASSERT_NE(srule, enc.leaf.s_rules.end());
  EXPECT_TRUE(srule->second.test(t.host_port_on_leaf(5)));
}

TEST(LegacySwitch, FullTableIsTheDeploymentBottleneck) {
  const auto t = small();
  const TreeEncoder encoder{t, EncoderConfig{}};
  SRuleSpace space{t, 0};  // legacy leaf's table is already full
  std::vector<bool> legacy(t.num_leaves(), false);
  legacy[1] = true;

  const std::vector<topo::HostId> hosts{0, 5};
  const MulticastTree tree{t, hosts};
  const auto enc = encoder.encode(tree, &space, &legacy);
  // The legacy leaf is neither in p-rules nor s-rules nor the default
  // (which it could not read): its members are unreachable — exactly the
  // paper's "group-table sizes on legacy switches will continue to be a
  // scalability bottleneck".
  EXPECT_TRUE(enc.leaf.s_rules.empty());
  EXPECT_FALSE(enc.leaf.default_rule);
}

TEST(LegacySwitch, EndToEndMixedFabricDelivers) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  std::vector<bool> legacy(t.num_leaves(), false);
  legacy[1] = true;   // leaf 1 legacy (hosts 4..7)
  legacy[8] = true;   // leaf 8 legacy (hosts 32..35)
  controller.set_legacy_leaves(legacy);

  sim::Fabric fabric{t};
  fabric.leaf(1).set_legacy(true);
  fabric.leaf(8).set_legacy(true);

  // Members behind legacy leaves, programmable leaves, across pods.
  const std::vector<topo::HostId> hosts{0, 5, 6, 17, 33};
  std::vector<Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                             MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});

  const auto result = fabric.send(0, controller.group(id).address, 100);
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    EXPECT_EQ(result.host_copies.at(hosts[i]), 1u)
        << "host " << hosts[i];
  }
  EXPECT_EQ(result.vm_deliveries, hosts.size() - 1);

  // Packets into hosts behind legacy leaves still carry the Elmo header.
  const sim::NodeRef legacy_leaf{topo::Layer::kLeaf, 1};
  const sim::NodeRef host5{topo::Layer::kHost, 5};
  const sim::NodeRef prog_leaf{topo::Layer::kLeaf, 4};
  const sim::NodeRef host17{topo::Layer::kHost, 17};
  EXPECT_GT(fabric.links().at({legacy_leaf, host5}).bytes,
            fabric.links().at({prog_leaf, host17}).bytes);
}

}  // namespace
}  // namespace elmo::dp
