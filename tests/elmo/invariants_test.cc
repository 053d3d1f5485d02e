// System-level invariants across random controller operation sequences:
// s-rule accounting never leaks, every sender's header always delivers
// exactly once, and the control plane is deterministic.
#include <gtest/gtest.h>

#include "elmo/churn.h"
#include "elmo/evaluator.h"
#include "sim/fabric.h"
#include "testutil.h"

namespace elmo {
namespace {

struct RandomOps : ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomOps, SRuleAccountingMatchesLiveGroups) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 2;  // force frequent s-rule traffic
  cfg.hmax_spine = 1;
  Controller controller{t, cfg};
  util::Rng rng{GetParam()};

  std::vector<GroupId> live;
  std::uint32_t next_vm = 0;
  for (int op = 0; op < 300; ++op) {
    const auto dice = rng.index(4);
    if (dice == 0 || live.empty()) {
      const auto hosts = test::random_hosts(t, 2 + rng.index(20), rng);
      std::vector<Member> members;
      for (const auto h : hosts) {
        members.push_back(Member{h, next_vm++, MemberRole::kBoth});
      }
      live.push_back(controller.create_group(0, members));
    } else if (dice == 1) {
      const auto at = rng.index(live.size());
      controller.remove_group(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (dice == 2) {
      const auto id = live[rng.index(live.size())];
      // Join a host not already in the group.
      const auto& g = controller.group(id);
      for (int attempt = 0; attempt < 20; ++attempt) {
        const auto host =
            static_cast<topo::HostId>(rng.index(t.num_hosts()));
        const bool present = std::any_of(
            g.members.begin(), g.members.end(),
            [&](const Member& m) { return m.host == host; });
        if (!present) {
          controller.join(id, Member{host, next_vm++, MemberRole::kBoth});
          break;
        }
      }
    } else {
      const auto id = live[rng.index(live.size())];
      const auto& g = controller.group(id);
      if (g.members.size() > 2) {
        const auto victim = g.members[rng.index(g.members.size())];
        controller.leave(id, victim.host, victim.vm);
      }
    }

    // Invariant: fabric-wide occupancy equals the sum over live groups.
    double expected_leaf = 0;
    double expected_spine_pods = 0;
    for (const auto id : live) {
      const auto& g = controller.group(id);
      expected_leaf += static_cast<double>(g.encoding.leaf.s_rules.size());
      expected_spine_pods +=
          static_cast<double>(g.encoding.spine.s_rules.size());
    }
    ASSERT_DOUBLE_EQ(controller.srule_space().leaf_stats().sum(),
                     expected_leaf);
    ASSERT_DOUBLE_EQ(
        controller.srule_space().spine_stats().sum(),
        expected_spine_pods * t.params().spines_per_pod);
  }

  for (const auto id : live) controller.remove_group(id);
  EXPECT_DOUBLE_EQ(controller.srule_space().leaf_stats().sum(), 0.0);
  EXPECT_DOUBLE_EQ(controller.srule_space().spine_stats().sum(), 0.0);
}

TEST_P(RandomOps, EverySenderDeliversExactlyOnceAfterMutations) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  Controller controller{t, EncoderConfig{}};
  const TrafficEvaluator evaluator{t};
  util::Rng rng{GetParam() ^ 0xabcdef};

  const auto hosts = test::random_hosts(t, 10, rng);
  std::vector<Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(
        Member{hosts[i], static_cast<std::uint32_t>(i), MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);

  std::uint32_t next_vm = 100;
  for (int round = 0; round < 25; ++round) {
    // Mutate.
    const auto& g = controller.group(id);
    if (rng.bernoulli(0.5) && g.members.size() > 3) {
      const auto victim = g.members[rng.index(g.members.size())];
      controller.leave(id, victim.host, victim.vm);
    } else {
      for (int attempt = 0; attempt < 20; ++attempt) {
        const auto host =
            static_cast<topo::HostId>(rng.index(t.num_hosts()));
        const bool present = std::any_of(
            g.members.begin(), g.members.end(),
            [&](const Member& m) { return m.host == host; });
        if (!present) {
          controller.join(id, Member{host, next_vm++, MemberRole::kBoth});
          break;
        }
      }
    }
    // Verify from every sender.
    const auto& state = controller.group(id);
    for (const auto& m : state.members) {
      if (!can_send(m.role)) continue;
      const auto report = evaluator.evaluate(
          *state.tree, state.encoding, m.host, 100,
          topo::group_hash(state.address));
      ASSERT_TRUE(report.delivery.exactly_once())
          << "round " << round << " sender " << m.host;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOps, ::testing::Values(1u, 2u, 3u));

TEST(Determinism, IdenticalRunsProduceIdenticalHeaders) {
  auto run = [] {
    const topo::ClosTopology t{topo::ClosParams::small_test()};
    util::Rng rng{424242};
    const cloud::Cloud cloud{t, cloud::CloudParams::small_test(), rng};
    cloud::WorkloadParams wp;
    wp.total_groups = 50;
    wp.min_group_size = 3;
    const cloud::GroupWorkload workload{cloud, wp, rng};
    Controller controller{t, EncoderConfig{}};
    std::vector<std::uint8_t> digest;
    for (const auto& g : workload.groups()) {
      std::vector<Member> members;
      for (std::size_t i = 0; i < g.size(); ++i) {
        members.push_back(
            Member{g.member_hosts[i], g.member_vms[i], MemberRole::kBoth});
      }
      const auto id = controller.create_group(g.tenant, members);
      const auto header = controller.header_for(id, g.member_hosts[0]);
      digest.insert(digest.end(), header.begin(), header.end());
    }
    return digest;
  };
  EXPECT_EQ(run(), run());
}

TEST(Integration, ChurnThenReinstallKeepsDataPlaneConsistent) {
  // Controller mutations followed by a data-plane reinstall must keep the
  // packet-level fabric delivering exactly what the controller thinks.
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  Controller controller{t, EncoderConfig{}};
  sim::Fabric fabric{t};
  util::Rng rng{777};

  const auto hosts = test::random_hosts(t, 8, rng);
  std::vector<Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(
        Member{hosts[i], static_cast<std::uint32_t>(i), MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  fabric.install_group(controller, id);

  std::uint32_t next_vm = 50;
  for (int round = 0; round < 10; ++round) {
    const auto& before = controller.group(id);
    const auto victim = before.members[rng.index(before.members.size())];
    fabric.uninstall_group(controller, id);  // uninstall with OLD state
    controller.leave(id, victim.host, victim.vm);
    for (int attempt = 0; attempt < 30; ++attempt) {
      const auto host = static_cast<topo::HostId>(rng.index(t.num_hosts()));
      const auto& g = controller.group(id);
      const bool present =
          std::any_of(g.members.begin(), g.members.end(),
                      [&](const Member& m) { return m.host == host; });
      if (!present) {
        controller.join(id, Member{host, next_vm++, MemberRole::kBoth});
        break;
      }
    }
    fabric.install_group(controller, id);

    const auto& g = controller.group(id);
    const auto sender = g.members[rng.index(g.members.size())].host;
    const auto result = fabric.send(sender, g.address, 128);
    for (const auto& m : g.members) {
      if (m.host == sender) continue;
      ASSERT_EQ(result.host_copies.count(m.host), 1u)
          << "round " << round << " member " << m.host;
    }
  }
}

}  // namespace
}  // namespace elmo
