// Cross-validation of the two execution engines: the packet-level data plane
// (dataplane/ + sim/Fabric) and the analytic TrafficEvaluator used by the
// large-scale benches must agree byte-for-byte on wire traffic and on the
// set of hosts reached — for any group, any sender, any encoding regime
// (pure p-rules, s-rules, defaults).
#include <gtest/gtest.h>

#include <array>

#include "elmo/evaluator.h"
#include "elmo/stream.h"
#include "sim/fabric.h"
#include "testutil.h"

namespace elmo {
namespace {

struct CrosscheckParam {
  std::size_t hmax_leaf;  // 0 = derive from budget
  std::size_t redundancy;
  std::size_t srule_capacity;
  std::uint64_t seed;
};

class Crosscheck : public ::testing::TestWithParam<CrosscheckParam> {};

TEST_P(Crosscheck, FabricAndEvaluatorAgree) {
  const auto param = GetParam();
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  EncoderConfig cfg;
  cfg.hmax_leaf_override = param.hmax_leaf;
  cfg.redundancy_limit = param.redundancy;
  cfg.srule_capacity = param.srule_capacity;

  Controller controller{topology, cfg};
  sim::Fabric fabric{topology};
  const TrafficEvaluator evaluator{topology};
  util::Rng rng{param.seed};

  for (int trial = 0; trial < 25; ++trial) {
    const auto hosts =
        test::random_hosts(topology, 2 + rng.index(30), rng);
    std::vector<Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                               MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
    const auto& g = controller.group(id);

    const std::size_t payload = 64 + rng.index(1400);
    for (int s = 0; s < 3; ++s) {
      const auto sender = hosts[rng.index(hosts.size())];
      fabric.reset_link_stats();
      const auto fabric_result = fabric.send(sender, g.address, payload);

      const auto flow = topo::group_hash(g.address);
      const auto report =
          evaluator.evaluate(*g.tree, g.encoding, sender, payload, flow);

      EXPECT_EQ(fabric_result.total_wire_bytes, report.elmo_wire_bytes)
          << "trial " << trial << " sender " << sender;
      EXPECT_EQ(fabric_result.total_link_transmissions,
                report.elmo_link_transmissions);

      // Delivery agreement: member copies and spurious copies.
      std::size_t member_copies = 0;
      std::size_t spurious_copies = 0;
      for (const auto& [host, copies] : fabric_result.host_copies) {
        if (host != sender && g.tree->is_member(host)) {
          member_copies += copies;
        } else {
          spurious_copies += copies;
        }
      }
      EXPECT_EQ(member_copies, report.delivery.members_reached +
                                   report.delivery.duplicate_deliveries);
      EXPECT_EQ(spurious_copies, report.delivery.spurious_deliveries);
      EXPECT_TRUE(report.delivery.exactly_once());
    }
    controller.remove_group(id);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, Crosscheck,
    ::testing::Values(
        // Generous budget: everything in p-rules.
        CrosscheckParam{0, 0, 1000, 1},
        // Redundant sharing.
        CrosscheckParam{0, 6, 1000, 2},
        CrosscheckParam{0, 12, 1000, 3},
        // Tight header: heavy s-rule usage.
        CrosscheckParam{1, 0, 1000, 4},
        // Tight header and no s-rules: default-rule cascades.
        CrosscheckParam{1, 0, 0, 5},
        CrosscheckParam{2, 4, 2, 6}));

TEST(Crosscheck, RunningExampleBothEnginesAndAllSenders) {
  const topo::ClosTopology topology{topo::ClosParams::running_example()};
  Controller controller{topology, EncoderConfig{}};
  sim::Fabric fabric{topology};
  const TrafficEvaluator evaluator{topology};

  const std::vector<topo::HostId> hosts{0, 1, 10, 12, 13, 15};
  std::vector<Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(
        Member{hosts[i], static_cast<std::uint32_t>(i), MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});
  const auto& g = controller.group(id);

  for (const auto sender : hosts) {
    const auto fabric_result = fabric.send(sender, g.address, 100);
    const auto flow = topo::group_hash(g.address);
    const auto report =
        evaluator.evaluate(*g.tree, g.encoding, sender, 100, flow);
    std::size_t copies = 0;
    for (const auto& [host, count] : fabric_result.host_copies) {
      copies += count;
    }
    EXPECT_EQ(copies, report.delivery.members_reached +
                          report.delivery.duplicate_deliveries +
                          report.delivery.spurious_deliveries);
    EXPECT_TRUE(report.delivery.exactly_once());
  }
}

}  // namespace
}  // namespace elmo
