#include "elmo/tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "testutil.h"
#include "util/rng.h"

namespace elmo {
namespace {

// The paper's running example (Fig. 3a): 4 pods x 2 spines x 2 leaves x
// 2 hosts; group = {Ha, Hb, Hk, Hm, Hn, Hp} = hosts {0, 1, 10, 12, 13, 15}.
const std::vector<topo::HostId> kExampleMembers{0, 1, 10, 12, 13, 15};

topo::ClosTopology example_topo() {
  return topo::ClosTopology{topo::ClosParams::running_example()};
}

TEST(MulticastTree, MatchesFigure3Bitmaps) {
  const auto t = example_topo();
  const MulticastTree tree{t, kExampleMembers};

  ASSERT_EQ(tree.num_leaves(), 4u);
  ASSERT_EQ(tree.num_pods(), 3u);
  EXPECT_EQ(tree.num_members(), 6u);

  // Leaf bitmaps from the figure: L0=11, L5=10, L6=11, L7=01.
  EXPECT_EQ(tree.find_leaf(0)->host_ports.to_string(), "11");
  EXPECT_EQ(tree.find_leaf(5)->host_ports.to_string(), "10");
  EXPECT_EQ(tree.find_leaf(6)->host_ports.to_string(), "11");
  EXPECT_EQ(tree.find_leaf(7)->host_ports.to_string(), "01");
  EXPECT_EQ(tree.find_leaf(1), nullptr);

  // Logical-spine bitmaps: P0=10, P2=01, P3=11.
  EXPECT_EQ(tree.find_pod(0)->leaf_ports.to_string(), "10");
  EXPECT_EQ(tree.find_pod(2)->leaf_ports.to_string(), "01");
  EXPECT_EQ(tree.find_pod(3)->leaf_ports.to_string(), "11");
  EXPECT_EQ(tree.find_pod(1), nullptr);

  EXPECT_EQ(tree.member_pods().to_string(), "1011");
}

TEST(MulticastTree, MembershipQueries) {
  const auto t = example_topo();
  const MulticastTree tree{t, kExampleMembers};
  for (const auto m : kExampleMembers) EXPECT_TRUE(tree.is_member(m));
  EXPECT_FALSE(tree.is_member(2));
  EXPECT_FALSE(tree.is_member(11));  // Hl shares L5 but is not a member
}

TEST(MulticastTree, DuplicateMembersCollapse) {
  const auto t = example_topo();
  const std::vector<topo::HostId> dup{0, 0, 1, 1};
  const MulticastTree tree{t, dup};
  EXPECT_EQ(tree.num_members(), 2u);
  EXPECT_EQ(tree.num_leaves(), 1u);
}

TEST(MulticastTree, SenderHaEncodingMatchesFigure3b) {
  const auto t = example_topo();
  const MulticastTree tree{t, kExampleMembers};
  const auto enc = tree.sender_encoding(/*Ha=*/0);

  // "At L0: forward to Hb and multipath to P0" -> u-leaf 01|M.
  EXPECT_EQ(enc.u_leaf.down.to_string(), "01");
  EXPECT_TRUE(enc.u_leaf.multipath);
  // "P0: multipath to C" -> u-spine 00|M.
  ASSERT_TRUE(enc.u_spine);
  EXPECT_EQ(enc.u_spine->down.to_string(), "00");
  EXPECT_TRUE(enc.u_spine->multipath);
  // "C: forward to P2, P3" -> core bitmap 0011.
  ASSERT_TRUE(enc.core_pods);
  EXPECT_EQ(enc.core_pods->to_string(), "0011");
}

TEST(MulticastTree, SenderHkEncodingMatchesFigure3b) {
  const auto t = example_topo();
  const MulticastTree tree{t, kExampleMembers};
  const auto enc = tree.sender_encoding(/*Hk=*/10);

  // "At L5: multipath to P2" (no other local receivers) -> 00|M.
  EXPECT_EQ(enc.u_leaf.down.to_string(), "00");
  EXPECT_TRUE(enc.u_leaf.multipath);
  ASSERT_TRUE(enc.u_spine);
  EXPECT_EQ(enc.u_spine->down.to_string(), "00");
  // "C: forward to P0, P3" -> 1001.
  ASSERT_TRUE(enc.core_pods);
  EXPECT_EQ(enc.core_pods->to_string(), "1001");
}

TEST(MulticastTree, SingleRackGroupNeedsNoUpstream) {
  const auto t = example_topo();
  const std::vector<topo::HostId> members{0, 1};
  const MulticastTree tree{t, members};
  const auto enc = tree.sender_encoding(0);
  EXPECT_EQ(enc.u_leaf.down.to_string(), "01");
  EXPECT_FALSE(enc.u_leaf.multipath);
  EXPECT_FALSE(enc.u_spine);
  EXPECT_FALSE(enc.core_pods);
}

TEST(MulticastTree, SinglePodGroupSkipsCore) {
  const auto t = example_topo();
  // L0 (hosts 0,1) and L1 (hosts 2,3) are both in pod 0.
  const std::vector<topo::HostId> members{0, 2};
  const MulticastTree tree{t, members};
  const auto enc = tree.sender_encoding(0);
  EXPECT_TRUE(enc.u_leaf.multipath);
  ASSERT_TRUE(enc.u_spine);
  EXPECT_EQ(enc.u_spine->down.to_string(), "01");  // forward down to L1
  EXPECT_FALSE(enc.u_spine->multipath);
  EXPECT_FALSE(enc.core_pods);
}

TEST(MulticastTree, NonMemberSenderStillRoutes) {
  const auto t = example_topo();
  const std::vector<topo::HostId> members{12, 13};  // all in pod 3
  const MulticastTree tree{t, members};
  const auto enc = tree.sender_encoding(/*host in pod 0=*/0);
  EXPECT_EQ(enc.u_leaf.down.popcount(), 0u);
  EXPECT_TRUE(enc.u_leaf.multipath);
  ASSERT_TRUE(enc.core_pods);
  EXPECT_EQ(enc.core_pods->to_string(), "0001");
}

TEST(MulticastTree, FailureDisablesMultipathAndPicksAliveSpine) {
  const auto t = example_topo();
  const MulticastTree tree{t, kExampleMembers};
  topo::FailureSet failures;
  failures.fail_spine(t.spine_at(0, 0));  // S0: plane 0 of pod 0

  const auto route = tree.sender_route(/*Ha=*/0, failures);
  const auto& enc = route.encoding;
  EXPECT_FALSE(enc.u_leaf.multipath);
  // Must avoid the failed plane 0 spine: only plane 1 remains.
  EXPECT_FALSE(enc.u_leaf.up.test(0));
  EXPECT_TRUE(enc.u_leaf.up.test(1));
  ASSERT_TRUE(enc.u_spine);
  EXPECT_FALSE(enc.u_spine->multipath);
  EXPECT_EQ(enc.u_spine->up.popcount(), 1u);
  EXPECT_TRUE(route.unreachable_pods.empty());
  ASSERT_TRUE(enc.core_pods);
  EXPECT_EQ(enc.core_pods->to_string(), "0011");
}

TEST(MulticastTree, CoreFailureRoutesThroughAliveCore) {
  const auto t = example_topo();
  const MulticastTree tree{t, kExampleMembers};
  topo::FailureSet failures;
  failures.fail_core(t.core_at(0, 0));

  const auto route = tree.sender_route(0, failures);
  const auto& enc = route.encoding;
  ASSERT_TRUE(enc.u_spine);
  EXPECT_TRUE(route.unreachable_pods.empty());
  // Whatever plane was chosen, the selected core port must be alive.
  bool ok = false;
  enc.u_leaf.up.for_each_set([&](std::size_t plane) {
    enc.u_spine->up.for_each_set([&](std::size_t core_port) {
      if (!failures.core_failed(t.core_at(plane, core_port))) ok = true;
    });
  });
  EXPECT_TRUE(ok);
}

TEST(MulticastTree, RemoteSpineFailureMarksPodUnreachableOnlyIfUncoverable) {
  const auto t = example_topo();
  const MulticastTree tree{t, kExampleMembers};
  topo::FailureSet failures;
  // Kill pod 2's spines on BOTH planes: pod 2 becomes unreachable.
  failures.fail_spine(t.spine_at(2, 0));
  failures.fail_spine(t.spine_at(2, 1));

  const auto route = tree.sender_route(0, failures);
  ASSERT_EQ(route.unreachable_pods.size(), 1u);
  EXPECT_EQ(route.unreachable_pods[0], 2u);
  // Pod 3 must still be covered.
  ASSERT_TRUE(route.encoding.core_pods);
  EXPECT_TRUE(route.encoding.core_pods->test(3));
  EXPECT_FALSE(route.encoding.core_pods->test(2));
}

TEST(MulticastTree, RandomGroupsTreeInvariants) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  util::Rng rng{515};
  for (int trial = 0; trial < 100; ++trial) {
    const auto members =
        test::random_hosts(t, 2 + rng.index(t.num_hosts() - 2), rng);
    const MulticastTree tree{t, members};
    EXPECT_EQ(tree.num_members(), members.size());

    // Sum of leaf bitmap popcounts == member count; pods consistent.
    std::size_t total = 0;
    for (const auto& leaf : tree.leaves()) {
      total += leaf.host_ports.popcount();
      const auto* pod = tree.find_pod(t.pod_of_leaf(leaf.leaf));
      ASSERT_NE(pod, nullptr);
      EXPECT_TRUE(pod->leaf_ports.test(t.leaf_index_in_pod(leaf.leaf)));
      EXPECT_TRUE(tree.member_pods().test(pod->pod));
    }
    EXPECT_EQ(total, members.size());

    std::size_t pod_leaf_total = 0;
    for (const auto& pod : tree.pods()) {
      pod_leaf_total += pod.leaf_ports.popcount();
    }
    EXPECT_EQ(pod_leaf_total, tree.num_leaves());
  }
}

// add_host and remove_host keep the tree equal to one built from the host
// set, including adds of members and removes of non-members.
TEST(MulticastTree, InPlaceEditsMatchAFreshTree) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  util::Rng rng{33};
  std::vector<topo::HostId> hosts;  // the member set, as a multiset of one
  MulticastTree tree{t, hosts};
  for (int step = 0; step < 2000; ++step) {
    const auto host =
        static_cast<topo::HostId>(rng.uniform_int(0, t.num_hosts() - 1));
    const auto it = std::find(hosts.begin(), hosts.end(), host);
    const bool member = it != hosts.end();
    if (rng.uniform_int(0, 1) == 0) {
      tree.add_host(host);
      if (!member) hosts.push_back(host);
    } else {
      tree.remove_host(host);
      if (member) hosts.erase(it);
    }
    ASSERT_EQ(tree, (MulticastTree{t, hosts})) << "step " << step;
  }
}

}  // namespace
}  // namespace elmo
