// Forwarding conformance: both switch types drive through the same
// process(view, arena) call shape, emissions are refcounted views (not
// copies), and the arena's span/rewind contract holds.
#include "dataplane/forwarding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataplane/hypervisor_switch.h"
#include "dataplane/network_switch.h"
#include "elmo/tree_encoder.h"

namespace elmo::dp {
namespace {

std::vector<std::uint8_t> bytes_of(const net::PacketView& view) {
  std::vector<std::uint8_t> out(view.size());
  view.copy_to(out);
  return out;
}

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
                          std::size_t payload_bytes = 64,
                          std::uint8_t fill = 0x77) {
    const auto enc = encode(tree);
    HypervisorSwitch hv{topo_, sender};
    HypervisorSwitch::GroupFlow flow;
    flow.vni = 1;
    flow.elmo_header = codec_.serialize(tree.sender_encoding(sender), enc);
    hv.install_flow(group_addr_, flow);
    return *hv.encapsulate(group_addr_,
                           std::vector<std::uint8_t>(payload_bytes, fill));
  }

  net::PacketView packet_from(topo::HostId sender, const MulticastTree& tree,
                              std::size_t payload_bytes = 64,
                              std::uint8_t fill = 0x77) {
    return net::PacketView{encapsulate(sender, tree, payload_bytes, fill)};
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

  // The outer header's checks run before the entry is made, too: a runt
  // and a non-IPv4 frame throw std::invalid_argument and leave nothing.
  const auto message_of = [&](const net::PacketView& packet) {
    try {
      leaf0.process(packet, arena);
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"no std::invalid_argument"};
  };
  const std::vector<std::uint8_t> runt{flat.begin(),
                                       flat.begin() + net::kOuterHeaderBytes -
                                           1};
  EXPECT_EQ(message_of(net::PacketView{std::span{runt}}),
            "NetworkSwitch: runt packet");
  EXPECT_EQ(arena.section_cache().size(), 0u);
  std::vector<std::uint8_t> ipv6{flat.begin(), flat.end()};
  ipv6[12] = 0x86;  // EtherType 0x86DD
  ipv6[13] = 0xDD;
  EXPECT_EQ(message_of(net::PacketView{std::span{ipv6}}),
            "NetworkSwitch: not IPv4");
  EXPECT_EQ(arena.section_cache().size(), 0u);
  arena.clear();
  EXPECT_EQ(leaf0.process(good, arena).size(), 2u);  // host 1 + uplink
  EXPECT_EQ(arena.section_cache().size(), 1u);
}

// Two views of one buffer can share a tail range yet not an outer header:
// one with a popped hole behind its outer header, one whose head was
// advanced over the popped bytes. The second is parsed on its own (its
// "outer header" is Elmo bytes, not an IPv4 frame), never served the
// first's entry.
TEST_F(ForwardingTest, SectionCacheKeysTheViewsHead) {
  const auto sent =
      packet_from(0, MulticastTree{topo_, std::vector<topo::HostId>{0, 2}});
  const auto holed = arriving_at_leaf1(sent);
  ASSERT_FALSE(holed.contiguous());
  const net::PacketView advanced{holed.buffer(),
                                 tail_offset(holed) - net::kOuterHeaderBytes,
                                 holed.buffer()->size()};
  ASSERT_EQ(tail_offset(advanced), tail_offset(holed));
  ASSERT_EQ(advanced.size(), holed.size());

  NetworkSwitch leaf1{topo_, topo::Layer::kLeaf, 1};
  EmissionArena arena;
  EXPECT_EQ(ports_of(leaf1.process(holed, arena)),
            std::vector<std::size_t>{0});
  arena.clear();
  EXPECT_THROW(leaf1.process(advanced, arena), std::invalid_argument);
  EXPECT_EQ(arena.section_cache().size(), 1u);
}

// A leaf re-strips only after every view of its last template died, and a
// dead template never stands in for a new one. A dead source never matches
// either, even while its template lives: a new packet of the same shape but
// other payload bytes, built right after the old one is freed (so an
// allocator that reuses blocks hands it the old addresses), gets its own
// template with its own bytes.
TEST_F(ForwardingTest, HostTemplateOfAFreedBufferNeverMatches) {
  NetworkSwitch leaf1{topo_, topo::Layer::kLeaf, 1};
  const MulticastTree tree{topo_, std::vector<topo::HostId>{0, 2}};
  EmissionArena arena;
  const auto strip_of = [&](const net::PacketView& at_leaf1) {
    auto out = leaf1.process(at_leaf1, arena);
    EXPECT_EQ(ports_of(out), std::vector<std::size_t>{0});
    return out.empty() ? net::PacketView{} : out[0].packet;
  };

  const auto a = arriving_at_leaf1(packet_from(0, tree, 64, 0x11));
  net::reset_copy_stats();
  auto first = strip_of(a);
  arena.clear();
  EXPECT_EQ(strip_of(a).buffer(), first.buffer());  // shared while alive
  EXPECT_EQ(net::copy_stats().copies, 1u);
  const auto a_bytes = bytes_of(first);
  arena.clear();
  first = net::PacketView{};  // the template's last view dies
  const net::PacketView stranger{
      std::vector<std::uint8_t>(a_bytes.size(), 0xEE)};
  const auto again = strip_of(a);
  EXPECT_NE(again.buffer(), stranger.buffer());
  EXPECT_EQ(bytes_of(again), a_bytes);
  EXPECT_EQ(net::copy_stats().copies, 3u);  // `stranger`, then the re-strip
  arena.clear();

  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto fill = static_cast<std::uint8_t>(0x20 + round);
    const auto old_fill = static_cast<std::uint8_t>(0x60 + round);
    auto next = encapsulate(0, tree, 64, fill);
    net::PacketView kept;
    {
      const auto old = arriving_at_leaf1(packet_from(0, tree, 64, old_fill));
      kept = strip_of(old);
      arena.clear();
    }  // the old source dies; its template lives on in `kept`
    EXPECT_EQ(kept.at(net::kOuterHeaderBytes), old_fill);
    const net::PacketView sent{std::move(next)};
    const auto b = arriving_at_leaf1(sent);
    const auto copy = strip_of(b);
    EXPECT_NE(copy.buffer(), kept.buffer());
    EXPECT_EQ(copy.size(), net::kOuterHeaderBytes + 64);
    EXPECT_EQ(copy.at(net::kOuterHeaderBytes), fill);
    EXPECT_EQ(copy.at(copy.size() - 1), fill);
    arena.clear();
  }
}

// A whole walk over small_test, mirroring sim::Fabric::send: one arena, its
// SectionCache cleared once, a FIFO of (node, view). Receivers sit on four
// leaves in three pods; every host copy is kept until the walk ends.
class HostTemplateWalk : public ::testing::Test {
 protected:
  struct Node {
    topo::Layer layer;
    std::uint32_t id;
  };
  struct Delivery {
    topo::HostId host;
    net::PacketView packet;
  };

  HostTemplateWalk()
      : topo_{topo::ClosParams::small_test()}, codec_{topo_} {
    for (std::uint32_t i = 0; i < topo_.num_leaves(); ++i) {
      leaves_.emplace_back(topo_, topo::Layer::kLeaf, i);
    }
    for (std::uint32_t i = 0; i < topo_.num_spines(); ++i) {
      spines_.emplace_back(topo_, topo::Layer::kSpine, i);
    }
    for (std::uint32_t i = 0; i < topo_.num_cores(); ++i) {
      cores_.emplace_back(topo_, topo::Layer::kCore, i);
    }
  }

  net::PacketView send(topo::HostId sender,
                       const std::vector<topo::HostId>& members) {
    const MulticastTree tree{topo_, members};
    const TreeEncoder encoder{topo_, EncoderConfig{}};
    HypervisorSwitch hv{topo_, sender};
    HypervisorSwitch::GroupFlow flow;
    flow.vni = 1;
    flow.elmo_header = codec_.serialize(tree.sender_encoding(sender),
                                        encoder.encode(tree, nullptr));
    const auto group = net::Ipv4Address::multicast_group(5);
    hv.install_flow(group, flow);
    std::vector<std::uint8_t> payload(100);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i);
    }
    return net::PacketView{*hv.encapsulate(group, payload)};
  }

  std::vector<Delivery> walk(const net::PacketView& sent,
                             topo::HostId sender, EmissionArena& arena) {
    std::vector<Delivery> delivered;
    std::vector<std::pair<Node, net::PacketView>> queue;
    queue.push_back({Node{topo::Layer::kLeaf, topo_.leaf_of_host(sender)},
                     sent});
    arena.section_cache().clear();
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto [at, packet] = queue[head];
      arena.clear();
      for (const auto& e : element(at).process(packet, arena)) {
        const auto next = neighbor_of(at, e.out_port);
        if (next.layer == topo::Layer::kHost) {
          delivered.push_back({next.id, e.packet});
        } else {
          queue.push_back({next, e.packet});
        }
      }
    }
    arena.clear();
    return delivered;
  }

  NetworkSwitch& element(const Node& node) {
    switch (node.layer) {
      case topo::Layer::kLeaf:
        return leaves_[node.id];
      case topo::Layer::kSpine:
        return spines_[node.id];
      default:
        return cores_[node.id];
    }
  }

  Node neighbor_of(const Node& node, std::size_t port) const {
    switch (node.layer) {
      case topo::Layer::kLeaf:
        if (port < topo_.leaf_down_ports()) {
          return {topo::Layer::kHost, topo_.host_at(node.id, port)};
        }
        return {topo::Layer::kSpine,
                topo_.spine_at(topo_.pod_of_leaf(node.id),
                               port - topo_.leaf_down_ports())};
      case topo::Layer::kSpine:
        if (port < topo_.spine_down_ports()) {
          return {topo::Layer::kLeaf,
                  topo_.leaf_at(topo_.pod_of_spine(node.id), port)};
        }
        return {topo::Layer::kCore,
                topo_.core_behind_spine_port(
                    node.id, port - topo_.spine_down_ports())};
      default:
        return {topo::Layer::kSpine,
                topo_.spine_behind_core_port(
                    node.id, static_cast<topo::PodId>(port))};
    }
  }

  // What a leaf delivers to a host: the sender's outer header with the VXLAN
  // Elmo flag cleared, then its payload.
  std::vector<std::uint8_t> stripped(const net::PacketView& sent) const {
    const auto flat = bytes_of(sent);
    const auto elmo_bytes = codec_.header_length(
        std::span{flat}.subspan(net::kOuterHeaderBytes));
    std::vector<std::uint8_t> out{flat.begin(),
                                  flat.begin() + net::kOuterHeaderBytes};
    out.insert(out.end(),
               flat.begin() + static_cast<std::ptrdiff_t>(
                                  net::kOuterHeaderBytes + elmo_bytes),
               flat.end());
    out[net::EthernetHeader::kSize + net::Ipv4Header::kSize +
        net::UdpHeader::kSize] &= ~std::uint8_t{0x01};
    return out;
  }

  topo::ClosTopology topo_;
  elmo::HeaderCodec codec_;
  std::vector<NetworkSwitch> leaves_;
  std::vector<NetworkSwitch> spines_;
  std::vector<NetworkSwitch> cores_;
};

// Hosts 4h..4h+3 sit on leaf h; leaf l is in pod l / 4. The sender's leaf 0
// delivers to host 1; leaves 1 (pod 0), 5 (pod 1) and 9 (pod 2) see the
// same popped tail and share its one template.
TEST_F(HostTemplateWalk, EveryHostCopyIsTheOneStripOfTheSendersPacket) {
  const std::vector<topo::HostId> members{0, 1, 5, 6, 20, 37};
  EmissionArena arena;
  auto sent = send(0, members);
  const auto want = stripped(sent);
  ASSERT_EQ(want.size(), net::kOuterHeaderBytes + 100);

  net::reset_copy_stats();
  auto delivered = walk(sent, 0, arena);
  // One template for the sender's leaf (the full tail) and one for every
  // other leaf (the tail popped to LEAF_RULES).
  EXPECT_EQ(net::copy_stats().copies, 2u);
  EXPECT_EQ(net::copy_stats().bytes, 2 * want.size());

  std::vector<topo::HostId> hosts;
  std::set<const net::PacketBuffer*> templates;
  for (const auto& d : delivered) {
    hosts.push_back(d.host);
    EXPECT_EQ(bytes_of(d.packet), want) << "host " << d.host;
    EXPECT_FALSE(net::VxlanHeader::parse(d.packet.front(net::kOuterHeaderBytes)
                                             .subspan(net::EthernetHeader::kSize +
                                                      net::Ipv4Header::kSize +
                                                      net::UdpHeader::kSize))
                     .elmo_present);
    templates.insert(d.packet.buffer().get());
  }
  std::sort(hosts.begin(), hosts.end());
  EXPECT_EQ(hosts, (std::vector<topo::HostId>{1, 5, 6, 20, 37}));
  EXPECT_EQ(templates.size(), 2u);

  // The memo pins nothing: once the walk's views are gone, the sender's
  // buffer and both templates are freed although the cache still holds
  // their entries.
  std::vector<std::weak_ptr<const net::PacketBuffer>> buffers{sent.buffer()};
  for (const auto& d : delivered) buffers.push_back(d.packet.buffer());
  // Two leaf entries (unpopped and popped tail), two spine, one core.
  EXPECT_EQ(arena.section_cache().size(), 5u);
  sent = net::PacketView{};
  delivered.clear();
  for (const auto& b : buffers) EXPECT_TRUE(b.expired());
  EXPECT_EQ(arena.section_cache().size(), 5u);
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
