#include <gtest/gtest.h>

#include "baselines/li_multicast.h"
#include "baselines/rmt.h"
#include "baselines/schemes.h"
#include "elmo/tree_encoder.h"
#include "testutil.h"
#include "util/rng.h"

namespace elmo::baselines {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

TEST(LiMulticast, TreeHasOneSpinePerPodAndEntriesEverywhere) {
  const auto t = small();
  LiMulticast li{t};
  const std::vector<topo::HostId> members{0, 1, 17, 35};
  const elmo::MulticastTree tree{t, members};
  const auto li_tree = li.build_tree(tree, 12345);

  EXPECT_EQ(li_tree.leaves.size(), tree.num_leaves());
  EXPECT_EQ(li_tree.spines.size(), tree.num_pods());
  EXPECT_TRUE(li_tree.core.has_value());  // multi-pod
  EXPECT_EQ(li_tree.switch_count(),
            li_tree.leaves.size() + li_tree.spines.size() + 1);

  li.install(li_tree);
  EXPECT_DOUBLE_EQ(li.leaf_entries().sum(),
                   static_cast<double>(li_tree.leaves.size()));
  EXPECT_DOUBLE_EQ(li.spine_entries().sum(),
                   static_cast<double>(li_tree.spines.size()));
  EXPECT_DOUBLE_EQ(li.core_entries().sum(), 1.0);
  li.remove(li_tree);
  EXPECT_DOUBLE_EQ(li.leaf_entries().sum(), 0.0);
}

TEST(LiMulticast, SinglePodTreeNeedsNoCore) {
  const auto t = small();
  LiMulticast li{t};
  const elmo::MulticastTree tree{t, std::vector<topo::HostId>{0, 4}};
  const auto li_tree = li.build_tree(tree, 7);
  EXPECT_FALSE(li_tree.core.has_value());
}

TEST(LiMulticast, UpdatesForChangeCoverUnion) {
  const auto t = small();
  LiMulticast li{t};
  const elmo::MulticastTree before_tree{t, std::vector<topo::HostId>{0, 17}};
  const elmo::MulticastTree after_tree{t,
                                       std::vector<topo::HostId>{0, 17, 35}};
  const auto before = li.build_tree(before_tree, 3);
  const auto after = li.build_tree(after_tree, 3);
  const auto updates = LiMulticast::updates_for_change(before, after);
  EXPECT_EQ(updates.leaves.size(), 3u);  // union of 2 and 3 leaves
  EXPECT_GE(updates.spines.size(), 2u);
  EXPECT_EQ(updates.cores.size(), 1u);  // same hash, same core
}

TEST(LiMulticast, ElmoUsesFarFewerNetworkEntries) {
  // The Fig. 4/5 comparison in miniature: Li et al. installs entries in
  // every tree switch for every group; Elmo only spills s-rules.
  const auto t = small();
  util::Rng rng{777};
  LiMulticast li{t};
  elmo::EncoderConfig cfg;
  cfg.redundancy_limit = 6;
  const elmo::TreeEncoder encoder{t, cfg};
  elmo::SRuleSpace space{t, 100000};

  for (int g = 0; g < 200; ++g) {
    const auto members = test::random_hosts(t, 4 + rng.index(20), rng);
    const elmo::MulticastTree tree{t, members};
    li.install(li.build_tree(tree, rng()));
    (void)encoder.encode(tree, &space);
  }
  EXPECT_LT(space.leaf_stats().mean(), li.leaf_entries().mean());
}

TEST(Schemes, DerivedLimitsMatchPaperTable3) {
  const ComparisonBudget budget{};
  EXPECT_EQ(ip_multicast_max_groups(budget), 5000u);
  EXPECT_EQ(li_et_al_max_groups(budget), 150'000u);
  EXPECT_EQ(rule_aggregation_max_groups(budget), 500'000u);
  EXPECT_EQ(bier_max_hosts(budget), 2600u);   // "2.6K"
  EXPECT_EQ(sgm_max_group_size(budget), 81u); // "<100"
}

TEST(Schemes, TableHasSevenSchemesWithElmoLast) {
  const auto rows = comparison_table(ComparisonBudget{});
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows.front().name, "IP Multicast");
  EXPECT_EQ(rows.back().name, "Elmo");
  // Elmo's headline properties.
  const auto& elmo_row = rows.back();
  EXPECT_TRUE(elmo_row.line_rate);
  EXPECT_TRUE(elmo_row.address_space_isolation);
  EXPECT_FALSE(elmo_row.unorthodox_switch);
  EXPECT_FALSE(elmo_row.end_host_replication);
  EXPECT_EQ(elmo_row.group_size_limit, "none");
  // Only the app-layer scheme replicates at end hosts.
  int replicators = 0;
  for (const auto& row : rows) {
    if (row.end_host_replication) ++replicators;
  }
  EXPECT_EQ(replicators, 1);
}

TEST(Rmt, TcamStrawmanWastes99Point5Percent) {
  // Appendix A: 10 p-rules x 11 bits -> 3 TCAM blocks, 10 of 2000 entries.
  const auto cost = tcam_prule_lookup_cost(10, 11);
  EXPECT_EQ(cost.blocks_needed, 3u);
  EXPECT_EQ(cost.entries_provided, 2000u);
  EXPECT_EQ(cost.entries_used, 10u);
  EXPECT_NEAR(cost.waste_fraction, 0.995, 1e-9);
}

TEST(Rmt, SramStrawmanNeedsOneStagePerRule) {
  const auto feasible = sram_prule_lookup_cost(10);
  EXPECT_EQ(feasible.stages_needed, 10u);
  EXPECT_TRUE(feasible.feasible);
  EXPECT_NEAR(feasible.waste_fraction, 0.999, 1e-9);

  // 30 leaf p-rules (the paper's header budget) cannot fit 16 stages.
  const auto infeasible = sram_prule_lookup_cost(30);
  EXPECT_FALSE(infeasible.feasible);
}

}  // namespace
}  // namespace elmo::baselines
