#include "sim/mtrace.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <utility>

#include "elmo/stream.h"

namespace elmo::sim {
namespace {

struct MtraceFixture : ::testing::Test {
  MtraceFixture()
      : topology{topo::ClosParams::small_test()},
        controller{topology, elmo::EncoderConfig{}},
        fabric{topology} {}

  elmo::GroupId make_group(const std::vector<topo::HostId>& hosts) {
    std::vector<elmo::Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(elmo::Member{hosts[i], static_cast<std::uint32_t>(i),
                                     elmo::MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
    return id;
  }

  topo::ClosTopology topology;
  elmo::Controller controller;
  Fabric fabric;
};

TEST_F(MtraceFixture, SingleRackTrace) {
  const auto id = make_group({0, 1});
  const auto report = mtrace(fabric, controller, id, 0, 64);
  EXPECT_EQ(report.members_reached, 1u);
  EXPECT_EQ(report.redundant_copies, 0u);
  // host0 -> L0 -> host1: two hops.
  ASSERT_EQ(report.hops.size(), 2u);
  EXPECT_EQ(report.hops[0].from, (NodeRef{topo::Layer::kHost, 0}));
  EXPECT_EQ(report.hops[0].to, (NodeRef{topo::Layer::kLeaf, 0}));
  EXPECT_EQ(report.hops[1].to, (NodeRef{topo::Layer::kHost, 1}));
}

TEST_F(MtraceFixture, CrossPodTraceShowsPopping) {
  const auto id = make_group({0, 17, 33});
  const auto report = mtrace(fabric, controller, id, 0, 100);
  EXPECT_EQ(report.members_reached, 2u);
  EXPECT_GE(report.max_depth, 5u);  // host-leaf-spine-core-spine-leaf-host

  // Header bytes shrink monotonically with depth (p-rule popping): compare
  // the first hop against final host deliveries.
  std::uint64_t first_hop_bytes = 0;
  std::uint64_t min_delivery_bytes = ~0ull;
  for (const auto& hop : report.hops) {
    if (hop.depth == 1) first_hop_bytes = hop.bytes;
    if (hop.to.layer == topo::Layer::kHost) {
      min_delivery_bytes = std::min(min_delivery_bytes, hop.bytes);
    }
  }
  EXPECT_GT(first_hop_bytes, min_delivery_bytes);
  EXPECT_EQ(min_delivery_bytes, net::kOuterHeaderBytes + 100);
}

TEST_F(MtraceFixture, RenderMentionsEveryLayer) {
  const auto id = make_group({0, 17});
  const auto report = mtrace(fabric, controller, id, 0, 64);
  const auto text = report.render();
  EXPECT_NE(text.find("host0"), std::string::npos);
  EXPECT_NE(text.find("L0"), std::string::npos);
  EXPECT_NE(text.find("S"), std::string::npos);
  EXPECT_NE(text.find("C"), std::string::npos);
  EXPECT_NE(text.find("host17"), std::string::npos);
  EXPECT_NE(text.find("members reached"), std::string::npos);
}

TEST_F(MtraceFixture, CounterDeltasCoverTheProbe) {
  const auto id = make_group({0, 1, 17});
  // Pre-probe traffic must not leak into the delta.
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  const auto report = mtrace(fabric, controller, id, 0, 64);

  // One probe: the sender's leaf sees it once, every delivery fans out of a
  // hypervisor, and nothing is dropped on a healthy fabric.
  const auto& c = report.counters;
  EXPECT_GE(c.leaves.packets_in, 1u);
  EXPECT_GE(c.leaves.copies_out, 2u);  // host1 (same rack) + spine path
  EXPECT_GT(c.leaves.bytes_in, 0u);
  EXPECT_GT(c.leaves.bytes_out, 0u);
  EXPECT_EQ(c.leaves.drops, 0u);
  EXPECT_EQ(c.hypervisors.received, report.members_reached);
  EXPECT_EQ(c.hypervisors.delivered_to_vms, report.members_reached);
  // Cross-pod probe traverses spines, so the pop accounting must move.
  EXPECT_GT(c.leaves.header_pops + c.spines.header_pops, 0u);

  const auto text = report.render();
  EXPECT_NE(text.find("counters (probe delta):"), std::string::npos);
}

TEST_F(MtraceFixture, ProbeAddsToTheLinkCountersItFinds) {
  // The link counters are monotonic series for the health detectors
  // (Fabric::sample_into): a probe adds its own transmissions and resets
  // nothing, and earlier traffic stays out of the reconstructed tree.
  const auto id = make_group({0, 1, 17, 33});
  const auto quiet = mtrace(fabric, controller, id, 0, 64);
  const auto address = controller.group(id).address;
  for (const topo::HostId sender : {1u, 17u, 33u}) {
    (void)fabric.send(sender, address, std::size_t{200});
  }
  const auto before = fabric.links();
  const auto report = mtrace(fabric, controller, id, 0, 64);
  const auto after = fabric.links();

  ASSERT_FALSE(report.hops.empty());
  EXPECT_EQ(report.hops.size(), quiet.hops.size());
  std::map<std::pair<NodeRef, NodeRef>, LinkStats> expected = before;
  for (const auto& hop : report.hops) {
    auto& link = expected[{hop.from, hop.to}];
    ++link.packets;
    link.bytes += hop.bytes;
  }
  EXPECT_EQ(after, expected);
}

TEST_F(MtraceFixture, CounterDeltaGoldenRender) {
  // Deterministic single-rack probe: host0 -> L0 -> host1. The sender's leaf
  // matches its upstream rule (the up-facing table owns packets entering from
  // the rack) and pops both the upstream and leaf header sections before the
  // hypervisor strips the rest. Golden-pins the counter-delta section of the
  // render so accounting regressions show up as a literal diff.
  const auto id = make_group({0, 1});
  const auto report = mtrace(fabric, controller, id, 0, 64);
  const auto text = report.render();
  const auto counters = text.substr(text.find("counters (probe delta):"));
  EXPECT_EQ(counters,
            "counters (probe delta):\n"
            "  leaf : 1 in, 1 out, 0 p-rule, 1 upstream, 0 s-rule, "
            "0 default, 0 drops, 2 pops (" +
                std::to_string(report.counters.leaves.header_pop_bytes) +
                "B)\n"
                "  host : 1 received, 1 VM deliveries, 0 discarded\n");
}

TEST_F(MtraceFixture, RedundantCopiesAttributed) {
  // Force default-rule spurious deliveries with a tiny header budget.
  elmo::EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.hmax_spine = 1;
  cfg.srule_capacity = 0;
  elmo::Controller tight{topology, cfg};
  Fabric tight_fabric{topology};
  std::vector<elmo::Member> members;
  for (std::uint32_t i = 0; i < 12; ++i) {
    members.push_back(elmo::Member{i * 5 % 64, i, elmo::MemberRole::kBoth});
  }
  const auto id = tight.create_group(0, members);
  stream::ControlPlane{tight, tight_fabric}.sync(std::array{id});
  const auto report = mtrace(tight_fabric, tight, id, members[0].host, 64);
  EXPECT_GT(report.redundant_copies, 0u);
  EXPECT_EQ(report.members_reached, members.size() - 1);
}

}  // namespace
}  // namespace elmo::sim
