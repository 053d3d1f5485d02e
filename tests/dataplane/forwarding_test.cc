// Forwarding conformance: both switch types drive through the same
// process(view, arena) call shape, emissions are refcounted views (not
// copies), and the arena's span/rewind contract holds.
#include "dataplane/forwarding.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dataplane/hypervisor_switch.h"
#include "dataplane/network_switch.h"
#include "elmo/tree_encoder.h"

namespace elmo::dp {
namespace {

class ForwardingTest : public ::testing::Test {
 protected:
  ForwardingTest()
      : topo_{topo::ClosParams::running_example()}, codec_{topo_} {}

  GroupEncoding encode(const MulticastTree& tree) {
    EncoderConfig cfg;
    cfg.hmax_leaf_override = 8;
    cfg.hmax_spine = 4;
    cfg.redundancy_limit = 2;
    const TreeEncoder encoder{topo_, cfg};
    return encoder.encode(tree, nullptr);
  }

  net::Packet encapsulate(topo::HostId sender, const MulticastTree& tree,
                          std::size_t payload_bytes = 64) {
    const auto enc = encode(tree);
    HypervisorSwitch hv{topo_, sender};
    HypervisorSwitch::GroupFlow flow;
    flow.vni = 1;
    flow.elmo_header = codec_.serialize(tree.sender_encoding(sender), enc);
    hv.install_flow(group_addr_, flow);
    return *hv.encapsulate(group_addr_,
                           std::vector<std::uint8_t>(payload_bytes, 0x77));
  }

  net::PacketView packet_from(topo::HostId sender, const MulticastTree& tree,
                              std::size_t payload_bytes = 64) {
    return net::PacketView{encapsulate(sender, tree, payload_bytes)};
  }

  // Sender 0's packet as it arrives at leaf 1: leaf 0 -> spine -> leaf 1,
  // each hop with its own arena. Its Elmo tail is the popped LEAF_RULES
  // section of the sender's buffer.
  net::PacketView arriving_at_leaf1(const net::PacketView& sent) {
    NetworkSwitch leaf0{topo_, topo::Layer::kLeaf, 0};
    EmissionArena arena;
    const auto up = leaf0.process(sent, arena);
    EXPECT_EQ(up.size(), 1u);
    if (up.empty()) return {};
    const auto up_port = up[0].out_port;
    EXPECT_GE(up_port, topo_.leaf_down_ports());
    NetworkSwitch spine{topo_, topo::Layer::kSpine,
                        topo_.spine_at(0, up_port - topo_.leaf_down_ports())};
    EmissionArena arena2;
    const auto down = spine.process(up[0].packet, arena2);
    EXPECT_EQ(down.size(), 1u);
    if (down.empty()) return {};
    EXPECT_EQ(down[0].out_port, 1u);  // leaf 1
    return down[0].packet;
  }

  // Where a view's Elmo tail starts in its buffer.
  static std::size_t tail_offset(const net::PacketView& view) {
    return static_cast<std::size_t>(view.from(net::kOuterHeaderBytes).data() -
                                    view.buffer()->bytes().data());
  }

  static std::vector<std::size_t> ports_of(std::span<const Emission> out) {
    std::vector<std::size_t> ports;
    for (const auto& e : out) ports.push_back(e.out_port);
    return ports;
  }

  topo::ClosTopology topo_;
  elmo::HeaderCodec codec_;
  net::Ipv4Address group_addr_ = net::Ipv4Address::multicast_group(77);
};

TEST_F(ForwardingTest, BothSwitchTypesDriveThroughTheBaseInterface) {
  const MulticastTree tree{topo_, std::vector<topo::HostId>{0, 1, 2}};
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};
  HypervisorSwitch hv{topo_, 1};
  HypervisorSwitch::GroupFlow flow;
  flow.vni = 1;
  flow.local_vms = {0};
  hv.install_flow(group_addr_, flow);

  const auto packet = packet_from(0, tree);
  EmissionArena arena;
  const auto drive = [&](auto& element) {
    arena.clear();
    const auto emissions = element.process(packet, arena);
    EXPECT_FALSE(emissions.empty());
    EXPECT_EQ(emissions.size(), arena.size());
  };
  drive(leaf);
  drive(hv);
}

TEST_F(ForwardingTest, SwitchToSwitchEmissionsShareTheSendersBuffer) {
  // Sender 0's leaf emits one local host copy and one uplink copy. The
  // uplink copy must alias the incoming buffer (p-rule pop = cursor
  // arithmetic); the single deep copy is the stripped host template.
  const MulticastTree tree{topo_, std::vector<topo::HostId>{0, 1, 2}};
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};
  const auto packet = packet_from(0, tree);

  EmissionArena arena;
  net::reset_copy_stats();
  const auto emissions = leaf.process(packet, arena);
  EXPECT_EQ(net::copy_stats().copies, 1u);  // host template only

  ASSERT_EQ(emissions.size(), 2u);
  for (const auto& e : emissions) {
    if (e.out_port >= topo_.leaf_down_ports()) {
      // `packet` + this emission hold the sender's buffer.
      EXPECT_EQ(e.packet.use_count(), 2);
    } else {
      EXPECT_EQ(e.packet.use_count(), 1);  // its own stripped template
    }
  }
}

TEST_F(ForwardingTest, HostEmissionsShareOneStrippedTemplate) {
  // Hosts 2 and 3 live on leaf 1; walk sender 0's packet leaf0 -> spine ->
  // leaf1 and check leaf1 materializes ONE template shared by both hosts.
  const MulticastTree tree{topo_, std::vector<topo::HostId>{0, 2, 3}};
  NetworkSwitch leaf0{topo_, topo::Layer::kLeaf, 0};
  NetworkSwitch leaf1{topo_, topo::Layer::kLeaf, 1};
  const auto packet = packet_from(0, tree);

  EmissionArena arena;
  auto up = leaf0.process(packet, arena);
  ASSERT_EQ(up.size(), 1u);
  const auto up_port = up[0].out_port;
  ASSERT_GE(up_port, topo_.leaf_down_ports());
  NetworkSwitch spine{topo_, topo::Layer::kSpine,
                      topo_.spine_at(0, up_port - topo_.leaf_down_ports())};

  EmissionArena arena2;
  auto down = spine.process(up[0].packet, arena2);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].out_port, 1u);  // leaf 1

  EmissionArena arena3;
  net::reset_copy_stats();
  auto host_copies = leaf1.process(down[0].packet, arena3);
  EXPECT_EQ(net::copy_stats().copies, 1u);
  ASSERT_EQ(host_copies.size(), 2u);
  for (const auto& e : host_copies) {
    EXPECT_LT(e.out_port, topo_.leaf_down_ports());
    // Both emissions — and nothing else — hold the one template buffer.
    EXPECT_EQ(e.packet.use_count(), 2);
    EXPECT_EQ(e.packet.size(), net::kOuterHeaderBytes + 64);
  }
}

TEST_F(ForwardingTest, HypervisorEmitsZeroCopyPerVmPayloadViews) {
  const MulticastTree tree{topo_, std::vector<topo::HostId>{0, 1}};
  const std::size_t payload_bytes = 200;
  const auto packet = packet_from(0, tree, payload_bytes);

  HypervisorSwitch hv{topo_, 1};
  HypervisorSwitch::GroupFlow flow;
  flow.vni = 1;
  flow.local_vms = {4, 9};
  hv.install_flow(group_addr_, flow);

  EmissionArena arena;
  net::reset_copy_stats();
  const auto emissions = hv.process(packet, arena);
  EXPECT_EQ(net::copy_stats().copies, 0u);  // decap is a cursor advance
  ASSERT_EQ(emissions.size(), 2u);
  EXPECT_EQ(emissions[0].out_port, 4u);
  EXPECT_EQ(emissions[1].out_port, 9u);
  for (const auto& e : emissions) {
    EXPECT_EQ(e.packet.size(), payload_bytes);
    EXPECT_EQ(e.packet.at(0), 0x77);
    // Input view + two per-VM views share the same buffer.
    EXPECT_EQ(e.packet.use_count(), 3);
  }
}

TEST_F(ForwardingTest, EmissionsOutliveTheInputView) {
  const MulticastTree tree{topo_, std::vector<topo::HostId>{0, 1, 2}};
  NetworkSwitch leaf{topo_, topo::Layer::kLeaf, 0};
  EmissionArena arena;
  {
    const auto packet = packet_from(0, tree);
    leaf.process(packet, arena);
  }  // input view destroyed; refcounts keep the buffers alive
  ASSERT_EQ(arena.size(), 2u);
  for (const auto& e : arena.since(0)) {
    const auto flat = e.packet.materialize();
    EXPECT_EQ(flat.size(), e.packet.size());
  }
}

// Two live buffers whose Elmo tails sit at the same offset and have the
// same length: one arena's section cache keeps an index for each, and each
// packet is forwarded by its own p-rule. Hosts 2 and 3 are leaf 1's ports
// 0 and 1.
TEST_F(ForwardingTest, SectionCacheKeepsSameOffsetBuffersApart) {
  const auto a = arriving_at_leaf1(
      packet_from(0, MulticastTree{topo_, std::vector<topo::HostId>{0, 2}}));
  const auto b = arriving_at_leaf1(
      packet_from(0, MulticastTree{topo_, std::vector<topo::HostId>{0, 3}}));
  ASSERT_NE(a.buffer(), b.buffer());
  ASSERT_EQ(tail_offset(a), tail_offset(b));
  ASSERT_EQ(a.size(), b.size());

  NetworkSwitch leaf1{topo_, topo::Layer::kLeaf, 1};
  EmissionArena arena;
  EXPECT_EQ(ports_of(leaf1.process(a, arena)),
            std::vector<std::size_t>{0});
  arena.clear();
  EXPECT_EQ(ports_of(leaf1.process(b, arena)),
            std::vector<std::size_t>{1});
  EXPECT_EQ(arena.section_cache().size(), 2u);
  arena.clear();
  EXPECT_EQ(ports_of(leaf1.process(a, arena)),
            std::vector<std::size_t>{0});  // a's entry, still live
  EXPECT_EQ(leaf1.stats().prule_matches, 3u);
  // The cache holds no reference: only the test's views own the buffers.
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
}

// A packet freed while the arena still has its entry, then a new one built
// without clearing the arena: the expired entry never matches. The new
// buffer is made right after the old one is freed, so an allocator that
// reuses the freed block hands it the old buffer's address.
TEST_F(ForwardingTest, SectionCacheEntryOfAFreedBufferNeverMatches) {
  NetworkSwitch leaf1{topo_, topo::Layer::kLeaf, 1};
  EmissionArena arena;
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const bool to_host2 = round % 2 == 0;
    auto next = encapsulate(
        0, MulticastTree{topo_, std::vector<topo::HostId>{
                                    0, to_host2 ? topo::HostId{3} : 2}});
    {
      const auto a = arriving_at_leaf1(packet_from(
          0, MulticastTree{topo_, std::vector<topo::HostId>{
                                      0, to_host2 ? topo::HostId{2} : 3}}));
      EXPECT_EQ(ports_of(leaf1.process(a, arena)),
                std::vector<std::size_t>{to_host2 ? 0u : 1u});
      arena.clear();  // the emissions hold nothing of `a` past this
    }
    const net::PacketView sent{std::move(next)};
    const auto b = arriving_at_leaf1(sent);
    EXPECT_EQ(ports_of(leaf1.process(b, arena)),
              std::vector<std::size_t>{to_host2 ? 1u : 0u});
    arena.clear();
  }
}

// A truncated Elmo header throws what the codec throws on those bytes and
// leaves no cache entry; the same arena then forwards a good packet.
TEST_F(ForwardingTest, TruncatedHeaderLeavesNoSectionCacheEntry) {
  const MulticastTree tree{topo_, std::vector<topo::HostId>{0, 1, 2}};
  const auto good = packet_from(0, tree, /*payload_bytes=*/0);
  auto bytes = good.materialize();
  const auto flat = bytes.bytes();
  const std::vector<std::uint8_t> cut{flat.begin(), flat.end() - 1};  // END
  EXPECT_THROW(codec_.header_length(std::span{cut}.subspan(
                   net::kOuterHeaderBytes)),
               std::out_of_range);

  NetworkSwitch leaf0{topo_, topo::Layer::kLeaf, 0};
  EmissionArena arena;
  EXPECT_THROW(leaf0.process(net::PacketView{std::span{cut}}, arena),
               std::out_of_range);
  EXPECT_EQ(arena.section_cache().size(), 0u);
  arena.clear();
  EXPECT_EQ(leaf0.process(good, arena).size(), 2u);  // host 1 + uplink
  EXPECT_EQ(arena.section_cache().size(), 1u);
}

TEST(EmissionArena, MarkSinceRewind) {
  EmissionArena arena;
  net::PacketView view{net::Packet{std::vector<std::uint8_t>{1, 2, 3}}};
  arena.emit(0, view);
  const auto mark = arena.mark();
  arena.emit(5, view);
  arena.emit(6, view);
  const auto tail = arena.since(mark);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].out_port, 5u);
  EXPECT_EQ(tail[1].out_port, 6u);
  arena.rewind(mark);
  EXPECT_EQ(arena.size(), 1u);
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_TRUE(arena.since(0).empty());
}

}  // namespace
}  // namespace elmo::dp
