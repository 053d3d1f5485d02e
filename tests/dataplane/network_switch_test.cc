#include "dataplane/network_switch.h"

#include <gtest/gtest.h>

#include "dataplane/hypervisor_switch.h"
#include "elmo/tree_encoder.h"
#include "testutil.h"

namespace elmo::dp {
namespace {

// Fixture around the paper's running example group (Fig. 3).
class NetworkSwitchTest : public ::testing::Test {
 protected:
  NetworkSwitchTest()
      : topo_{topo::ClosParams::running_example()},
        codec_{topo_},
        tree_{topo_, std::vector<topo::HostId>{0, 1, 10, 12, 13, 15}} {}

  // Encodes with generous limits: everything in p-rules.
  GroupEncoding encode(std::size_t hmax_leaf = 8, std::size_t r = 2) {
    EncoderConfig cfg;
    cfg.hmax_leaf_override = hmax_leaf;
    cfg.hmax_spine = 4;
    cfg.redundancy_limit = r;
    const TreeEncoder encoder{topo_, cfg};
    return encoder.encode(tree_, nullptr);
  }

  net::Packet packet_from(topo::HostId sender, const GroupEncoding& enc,
                          std::size_t payload_bytes = 64) {
    HypervisorSwitch hv{topo_, sender};
    HypervisorSwitch::GroupFlow flow;
    flow.vni = 1;
    flow.elmo_header =
        codec_.serialize(tree_.sender_encoding(sender), enc);
    hv.install_flow(group_addr_, flow);
    auto packet = hv.encapsulate(
        group_addr_, std::vector<std::uint8_t>(payload_bytes, 0x77));
    return std::move(*packet);
  }

  std::size_t elmo_bytes_in(const net::Packet& packet) const {
    return codec_.header_length(
        packet.bytes().subspan(net::kOuterHeaderBytes));
  }

  topo::ClosTopology topo_;
  elmo::HeaderCodec codec_;
  elmo::MulticastTree tree_;
  net::Ipv4Address group_addr_ = net::Ipv4Address::multicast_group(77);
};

TEST_F(NetworkSwitchTest, UpstreamLeafDeliversLocallyAndForwardsUp) {
  const auto enc = encode();
  auto packet = packet_from(/*Ha=*/0, enc);
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};

  const auto copies = test::forward(leaf, packet);
  ASSERT_EQ(copies.size(), 2u);
  // One copy to the local member Hb (port 1), one up a multipath port.
  bool to_host = false;
  bool up = false;
  for (const auto& copy : copies) {
    if (copy.out_port == 1) {
      to_host = true;
      // Host copies carry no Elmo header at all.
      EXPECT_EQ(copy.packet.size(), net::kOuterHeaderBytes + 64);
    } else {
      EXPECT_GE(copy.out_port, topo_.leaf_down_ports());
      up = true;
      // U_LEAF popped: the next section is U_SPINE.
      const auto parsed = codec_.parse(
          copy.packet.bytes().subspan(net::kOuterHeaderBytes));
      EXPECT_FALSE(parsed.u_leaf);
      EXPECT_TRUE(parsed.u_spine);
      EXPECT_LT(elmo_bytes_in(copy.packet), elmo_bytes_in(packet));
    }
  }
  EXPECT_TRUE(to_host);
  EXPECT_TRUE(up);
  EXPECT_EQ(leaf.stats().upstream_matches, 1u);
}

TEST_F(NetworkSwitchTest, UpstreamSpineForwardsToCore) {
  const auto enc = encode();
  auto packet = packet_from(0, enc);
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};
  auto up_copy = std::move(test::forward(leaf, packet)[1].packet);

  // Deliver to the spine behind that port.
  NetworkSwitch spine{topo_, topo::Layer::kSpine, topo_.spine_at(0, 0)};
  const auto copies = test::forward(spine, up_copy);
  ASSERT_EQ(copies.size(), 1u);  // no same-pod member leaves for Ha
  EXPECT_GE(copies[0].out_port, topo_.spine_down_ports());
  const auto parsed = codec_.parse(
      copies[0].packet.bytes().subspan(net::kOuterHeaderBytes));
  EXPECT_FALSE(parsed.u_spine);
  ASSERT_TRUE(parsed.core_pods);
  EXPECT_EQ(parsed.core_pods->to_string(), "0011");
}

TEST_F(NetworkSwitchTest, CoreFansOutPerPodAndPopsItsSection) {
  const auto enc = encode();
  auto packet = packet_from(0, enc);
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};
  auto up1 = std::move(test::forward(leaf, packet)[1].packet);
  NetworkSwitch spine{topo_, topo::Layer::kSpine, topo_.spine_at(0, 0)};
  auto up2 = std::move(test::forward(spine, up1)[0].packet);

  NetworkSwitch core{topo_, topo::Layer::kCore, 0};
  const auto copies = test::forward(core, up2);
  ASSERT_EQ(copies.size(), 2u);  // pods 2 and 3
  EXPECT_EQ(copies[0].out_port, 2u);
  EXPECT_EQ(copies[1].out_port, 3u);
  for (const auto& copy : copies) {
    const auto parsed = codec_.parse(
        copy.packet.bytes().subspan(net::kOuterHeaderBytes));
    EXPECT_FALSE(parsed.core_pods);
    EXPECT_FALSE(parsed.spine_rules.empty());
  }
}

TEST_F(NetworkSwitchTest, DownstreamSpineMatchesPodRuleAndPops) {
  const auto enc = encode();
  auto packet = packet_from(0, enc);
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};
  auto up1 = std::move(test::forward(leaf, packet)[1].packet);
  NetworkSwitch spine0{topo_, topo::Layer::kSpine, topo_.spine_at(0, 0)};
  auto up2 = std::move(test::forward(spine0, up1)[0].packet);
  NetworkSwitch core{topo_, topo::Layer::kCore, 0};
  auto to_pod3 = std::move(test::forward(core, up2)[1].packet);

  NetworkSwitch spine3{topo_, topo::Layer::kSpine, topo_.spine_at(3, 0)};
  const auto copies = test::forward(spine3, to_pod3);
  ASSERT_EQ(copies.size(), 2u);  // L6 and L7
  EXPECT_EQ(spine3.stats().prule_matches, 1u);
  for (const auto& copy : copies) {
    const auto parsed = codec_.parse(
        copy.packet.bytes().subspan(net::kOuterHeaderBytes));
    EXPECT_TRUE(parsed.spine_rules.empty());  // spine layer popped
    EXPECT_FALSE(parsed.leaf_rules.empty());
  }
}

TEST_F(NetworkSwitchTest, DownstreamLeafDeliversAndStrips) {
  const auto enc = encode();
  auto packet = packet_from(0, enc);
  NetworkSwitch leaf0{topo_, topo::Layer::kLeaf, 0};
  auto up1 = std::move(test::forward(leaf0, packet)[1].packet);
  NetworkSwitch spine0{topo_, topo::Layer::kSpine, topo_.spine_at(0, 0)};
  auto up2 = std::move(test::forward(spine0, up1)[0].packet);
  NetworkSwitch core{topo_, topo::Layer::kCore, 0};
  auto to_pod3 = std::move(test::forward(core, up2)[1].packet);
  NetworkSwitch spine3{topo_, topo::Layer::kSpine, topo_.spine_at(3, 0)};
  auto spine_out = test::forward(spine3, to_pod3);

  // First copy goes to leaf index 0 of pod 3 = L6 (hosts Hm, Hn members).
  NetworkSwitch leaf6{topo_, topo::Layer::kLeaf, 6};
  const auto copies = test::forward(leaf6, spine_out[0].packet);
  ASSERT_EQ(copies.size(), 2u);
  for (const auto& copy : copies) {
    EXPECT_LT(copy.out_port, topo_.leaf_down_ports());
    EXPECT_EQ(copy.packet.size(), net::kOuterHeaderBytes + 64);
  }
  EXPECT_EQ(leaf6.stats().prule_matches, 1u);
}

TEST_F(NetworkSwitchTest, SRuleFallbackWhenNoPRuleMatches) {
  // Encode with hmax so small that leaves overflow; install the s-rule and
  // check the group-table path.
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.hmax_spine = 4;
  const TreeEncoder encoder{topo_, cfg};
  SRuleSpace space{topo_, 10};
  const auto enc = encoder.encode(tree_, &space);
  ASSERT_FALSE(enc.leaf.s_rules.empty());
  const auto [srule_leaf, srule_bitmap] = enc.leaf.s_rules.front();

  auto packet = packet_from(0, enc);
  // Simulate arrival at the s-ruled leaf with upstream layers popped.
  std::size_t pop = 0;
  for (const auto& s :
       codec_.scan_sections(packet.bytes().subspan(net::kOuterHeaderBytes))) {
    if (s.tag == elmo::SectionTag::kLeafRules ||
        s.tag == elmo::SectionTag::kEnd) {
      pop = s.begin;
      break;
    }
  }
  packet.erase(net::kOuterHeaderBytes, pop);

  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, srule_leaf};
  // Without the s-rule installed: no p-rule match; may hit default or drop.
  NetworkSwitch bare{topo_, topo::Layer::kLeaf, srule_leaf};
  const auto before = test::forward(bare, packet);
  EXPECT_EQ(bare.stats().srule_matches, 0u);

  leaf.install_srule(group_addr_, srule_bitmap);
  const auto copies = test::forward(leaf, packet);
  EXPECT_EQ(leaf.stats().srule_matches, 1u);
  EXPECT_EQ(copies.size(), srule_bitmap.popcount());
}

TEST_F(NetworkSwitchTest, DropWhenNothingMatches) {
  const auto enc = encode();
  auto packet = packet_from(0, enc);
  // Pop everything up to the leaf section, then hand to a leaf that is not
  // in the tree and has no s-rule; encoding has no default (generous hmax).
  const auto sections =
      codec_.scan_sections(packet.bytes().subspan(net::kOuterHeaderBytes));
  for (const auto& s : sections) {
    if (s.tag == elmo::SectionTag::kLeafRules) {
      packet.erase(net::kOuterHeaderBytes, s.begin);
      break;
    }
  }
  NetworkSwitch outsider{topo_, topo::Layer::kLeaf, 3};
  EXPECT_TRUE(test::forward(outsider, packet).empty());
  EXPECT_EQ(outsider.stats().drops, 1u);
}

TEST_F(NetworkSwitchTest, RejectsNonIpv4) {
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};
  net::Packet junk = net::Packet::of_size(60);
  EXPECT_THROW(test::forward(leaf, junk), std::invalid_argument);
}

TEST_F(NetworkSwitchTest, SRuleTableLifecycle) {
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};
  net::PortBitmap ports{topo_.leaf_down_ports()};
  ports.set(0);
  leaf.install_srule(group_addr_, ports);
  EXPECT_EQ(leaf.srule_count(), 1u);
  leaf.remove_srule(group_addr_);
  EXPECT_EQ(leaf.srule_count(), 0u);
}

}  // namespace
}  // namespace elmo::dp
