// Equivalence of the event-queue fabric walk against a reference recursive
// walk (the pre-pipeline algorithm, rebuilt here from the materializing
// compat wrappers). Every SendResult field must match bit-exactly across
// encoder regimes, topologies, and senders.
#include <gtest/gtest.h>

#include <array>

#include "dataplane/common.h"
#include "elmo/stream.h"
#include "sim/fabric.h"
#include "testutil.h"

namespace elmo {
namespace {

// Depth-first walk that materializes a full Packet per link, exactly like
// the original recursive implementation.
class ReferenceWalk {
 public:
  ReferenceWalk(sim::Fabric& fabric) : fabric_{fabric} {}

  sim::SendResult send(topo::HostId src, net::Ipv4Address group,
                       std::span<const std::uint8_t> payload) {
    sim::SendResult result;
    auto packet = fabric_.hypervisor(src).encapsulate(group, payload);
    if (!packet) return result;
    account(packet->size(), result);
    deliver(topo::Layer::kLeaf, fabric_.topology().leaf_of_host(src),
            *packet, 1, result);
    return result;
  }

 private:
  void account(std::size_t bytes, sim::SendResult& result) {
    ++result.total_link_transmissions;
    result.total_wire_bytes += bytes;
  }

  dp::NetworkSwitch& switch_at(topo::Layer layer, std::uint32_t id) {
    switch (layer) {
      case topo::Layer::kLeaf:
        return fabric_.leaf(id);
      case topo::Layer::kSpine:
        return fabric_.spine(id);
      default:
        return fabric_.core(id);
    }
  }

  // Mirrors the fabric's port wiring (Fabric::neighbor_of is private).
  std::pair<topo::Layer, std::uint32_t> neighbor(topo::Layer layer,
                                                 std::uint32_t id,
                                                 std::size_t port) const {
    const auto& t = fabric_.topology();
    switch (layer) {
      case topo::Layer::kLeaf:
        if (port < t.leaf_down_ports()) {
          return {topo::Layer::kHost, t.host_at(id, port)};
        }
        return {topo::Layer::kSpine,
                t.spine_at(t.pod_of_leaf(id), port - t.leaf_down_ports())};
      case topo::Layer::kSpine:
        if (port < t.spine_down_ports()) {
          return {topo::Layer::kLeaf, t.leaf_at(t.pod_of_spine(id), port)};
        }
        return {topo::Layer::kCore,
                t.core_behind_spine_port(id, port - t.spine_down_ports())};
      default:
        return {topo::Layer::kSpine,
                t.spine_behind_core_port(id, static_cast<topo::PodId>(port))};
    }
  }

  void deliver(topo::Layer layer, std::uint32_t id, const net::Packet& packet,
               std::size_t hops, sim::SendResult& result) {
    result.max_hops = std::max(result.max_hops, hops);
    auto copies = test::forward(switch_at(layer, id), packet);
    for (auto& copy : copies) {
      const auto [next_layer, next_id] = neighbor(layer, id, copy.out_port);
      account(copy.packet.size(), result);
      if (next_layer == topo::Layer::kHost) {
        ++result.host_copies[next_id];
        result.vm_deliveries +=
            test::receive(fabric_.hypervisor(next_id), copy.packet).size();
      } else {
        deliver(next_layer, next_id, copy.packet, hops + 1, result);
      }
    }
  }

  sim::Fabric& fabric_;
};

void expect_same_result(const sim::SendResult& queue_walk,
                        const sim::SendResult& reference) {
  EXPECT_EQ(queue_walk.host_copies, reference.host_copies);
  EXPECT_EQ(queue_walk.vm_deliveries, reference.vm_deliveries);
  EXPECT_EQ(queue_walk.total_wire_bytes, reference.total_wire_bytes);
  EXPECT_EQ(queue_walk.total_link_transmissions,
            reference.total_link_transmissions);
  EXPECT_EQ(queue_walk.max_hops, reference.max_hops);
}

struct RegimeParam {
  std::size_t hmax_leaf;  // 0 = derive from budget
  std::size_t redundancy;
  std::size_t srule_capacity;
  std::uint64_t seed;
};

class WalkEquivalence : public ::testing::TestWithParam<RegimeParam> {};

TEST_P(WalkEquivalence, QueueWalkMatchesRecursiveWalk) {
  const auto param = GetParam();
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  EncoderConfig cfg;
  cfg.hmax_leaf_override = param.hmax_leaf;
  cfg.redundancy_limit = param.redundancy;
  cfg.srule_capacity = param.srule_capacity;

  Controller controller{topology, cfg};
  sim::Fabric fabric{topology};
  ReferenceWalk reference{fabric};
  util::Rng rng{param.seed};

  for (int trial = 0; trial < 10; ++trial) {
    const auto hosts = test::random_hosts(topology, 2 + rng.index(30), rng);
    std::vector<Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                               MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
    const auto& g = controller.group(id);

    const std::vector<std::uint8_t> payload(64 + rng.index(1400), 0xab);
    for (int s = 0; s < 3; ++s) {
      const auto sender = hosts[rng.index(hosts.size())];
      const auto expected = reference.send(sender, g.address, payload);
      const auto actual = fabric.send(sender, g.address, payload);
      expect_same_result(actual, expected);
    }
    controller.remove_group(id);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, WalkEquivalence,
    ::testing::Values(RegimeParam{0, 0, 1000, 11},   // all p-rules
                      RegimeParam{0, 6, 1000, 12},   // redundant sharing
                      RegimeParam{1, 0, 1000, 13},   // heavy s-rules
                      RegimeParam{1, 0, 0, 14},      // default-rule cascades
                      RegimeParam{2, 4, 2, 15}));

TEST(WalkEquivalence, RunningExampleAllSenders) {
  const topo::ClosTopology topology{topo::ClosParams::running_example()};
  Controller controller{topology, EncoderConfig{}};
  sim::Fabric fabric{topology};
  ReferenceWalk reference{fabric};

  const std::vector<topo::HostId> hosts{0, 1, 10, 12, 13, 15};
  std::vector<Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(
        Member{hosts[i], static_cast<std::uint32_t>(i), MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});
  const auto& g = controller.group(id);

  const std::vector<std::uint8_t> payload(100, 0x5c);
  for (const auto sender : hosts) {
    expect_same_result(fabric.send(sender, g.address, payload),
                       reference.send(sender, g.address, payload));
  }
}

TEST(WalkEquivalence, LegacyLeavesAgreeToo) {
  // A mixed fabric exercises the legacy no-pop path and the hypervisor's
  // unstripped-header skip in both walks.
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  Controller controller{topology, EncoderConfig{}};
  std::vector<bool> legacy(topology.num_leaves(), false);
  legacy[1] = true;  // hosts 4..7
  legacy[8] = true;  // hosts 32..35
  controller.set_legacy_leaves(legacy);

  sim::Fabric fabric{topology};
  fabric.leaf(1).set_legacy(true);
  fabric.leaf(8).set_legacy(true);
  ReferenceWalk reference{fabric};

  const std::vector<topo::HostId> hosts{0, 5, 6, 17, 33};
  std::vector<Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(
        Member{hosts[i], static_cast<std::uint32_t>(i), MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});
  const auto& g = controller.group(id);

  const std::vector<std::uint8_t> payload(256, 0xab);
  for (const auto sender : hosts) {
    expect_same_result(fabric.send(sender, g.address, payload),
                       reference.send(sender, g.address, payload));
  }
}

}  // namespace
}  // namespace elmo
