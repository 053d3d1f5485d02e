#include "elmo/tree_encoder.h"

#include <gtest/gtest.h>

#include "testutil.h"
#include "util/rng.h"

namespace elmo {
namespace {

// Property sweep over R and placement-ish randomness: every encoding must
// stay within the header budget for every sender, and coverage must hold.
struct EncoderParam {
  std::size_t redundancy;
  std::size_t budget;
};

class EncoderProperty : public ::testing::TestWithParam<EncoderParam> {};

TEST_P(EncoderProperty, HeadersAlwaysWithinBudget) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  util::Rng rng{777};
  EncoderConfig cfg;
  cfg.header_budget_bytes = GetParam().budget;
  cfg.redundancy_limit = GetParam().redundancy;
  const TreeEncoder encoder{t, cfg};
  SRuleSpace space{t, 100};

  for (int trial = 0; trial < 60; ++trial) {
    const auto members =
        test::random_hosts(t, 2 + rng.index(t.num_hosts() / 2), rng);
    const MulticastTree tree{t, members};
    const auto encoding = encoder.encode(tree, &space);

    EXPECT_LE(encoding.spine.p_rules.size(), encoder.hmax_spine());
    EXPECT_LE(encoding.leaf.p_rules.size(), encoder.hmax_leaf());

    // Exact serialized size must respect the budget for every sender.
    for (const auto sender : members) {
      EXPECT_LE(encoder.header_bytes(tree, encoding, sender),
                cfg.header_budget_bytes);
    }
    encoder.release(encoding, space);
  }

  // All reservations returned.
  EXPECT_DOUBLE_EQ(space.leaf_stats().sum(), 0.0);
  EXPECT_DOUBLE_EQ(space.spine_stats().sum(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EncoderProperty,
                         ::testing::Values(EncoderParam{0, 64},
                                           EncoderParam{0, 325},
                                           EncoderParam{6, 325},
                                           EncoderParam{12, 325},
                                           EncoderParam{12, 125}));

TEST(ElmoScheme, CoversEveryTreeSwitch) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  util::Rng rng{888};
  const TreeEncoder encoder{t, EncoderConfig{}};
  SRuleSpace space{t, 100};

  const auto members = test::random_hosts(t, 20, rng);
  const MulticastTree tree{t, members};
  const auto encoding = encoder.encode(tree, &space);

  auto covered = [](const LayerEncoding& layer, std::uint32_t id) {
    for (const auto& rule : layer.p_rules) {
      for (const auto rid : rule.switch_ids) {
        if (rid == id) return true;
      }
    }
    for (const auto& [sid, bm] : layer.s_rules) {
      if (sid == id) return true;
    }
    return layer.default_rule.has_value();
  };

  for (const auto& leaf : tree.leaves()) {
    EXPECT_TRUE(covered(encoding.leaf, leaf.leaf));
  }
  for (const auto& pod : tree.pods()) {
    EXPECT_TRUE(covered(encoding.spine, pod.pod));
  }
}

TEST(ElmoScheme, NoSpaceMeansDefaultRulesNotSRules) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  util::Rng rng{999};
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.hmax_spine = 1;
  const TreeEncoder encoder{t, cfg};

  const auto members = test::random_hosts(t, 30, rng);
  const MulticastTree tree{t, members};
  const auto encoding = encoder.encode(tree, /*space=*/nullptr);
  EXPECT_TRUE(encoding.leaf.s_rules.empty());
  EXPECT_TRUE(encoding.spine.s_rules.empty());
  // 30 hosts over 16 leaves cannot fit one p-rule with kmax 2.
  EXPECT_TRUE(encoding.uses_default());
}

TEST(ElmoScheme, SRuleCapacityZeroBehavesLikeNoSpace) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  util::Rng rng{1001};
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.srule_capacity = 0;
  const TreeEncoder encoder{t, cfg};
  SRuleSpace space{t, cfg.srule_capacity};

  const auto members = test::random_hosts(t, 30, rng);
  const MulticastTree tree{t, members};
  const auto encoding = encoder.encode(tree, &space);
  EXPECT_TRUE(encoding.leaf.s_rules.empty());
  EXPECT_TRUE(encoding.uses_default());
}

TEST(ElmoScheme, SmallGroupNeedsNoSRulesOrDefaults) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const TreeEncoder encoder{t, EncoderConfig{}};
  SRuleSpace space{t, 100};
  const std::vector<topo::HostId> members{0, 1, 5};
  const MulticastTree tree{t, members};
  const auto encoding = encoder.encode(tree, &space);
  EXPECT_EQ(encoding.s_rule_count(), 0u);
  EXPECT_FALSE(encoding.uses_default());
  EXPECT_GT(encoding.p_rule_count(), 0u);
}

TEST(ElmoScheme, HigherRNeverIncreasesPRuleCount) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  util::Rng rng{1003};
  for (int trial = 0; trial < 20; ++trial) {
    const auto members = test::random_hosts(t, 24, rng);
    const MulticastTree tree{t, members};

    std::size_t prev_rules = ~0u;
    for (const std::size_t r : {0u, 4u, 12u}) {
      EncoderConfig cfg;
      cfg.redundancy_limit = r;
      const TreeEncoder encoder{t, cfg};
      const auto encoding = encoder.encode(tree, nullptr);
      const auto rules = encoding.leaf.p_rules.size();
      EXPECT_LE(rules, prev_rules)
          << "R=" << r << " used more leaf p-rules than a smaller R";
      prev_rules = rules;
    }
  }
}

TEST(ElmoScheme, HeaderBytesTrackGroupSpread) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const TreeEncoder encoder{t, EncoderConfig{}};
  const std::vector<topo::HostId> tight{0, 1, 2};        // one rack
  const std::vector<topo::HostId> spread{0, 8, 16, 24, 32, 40, 48, 56};
  const MulticastTree tight_tree{t, tight};
  const MulticastTree spread_tree{t, spread};
  const auto tight_enc = encoder.encode(tight_tree, nullptr);
  const auto spread_enc = encoder.encode(spread_tree, nullptr);
  EXPECT_LT(encoder.header_bytes(tight_tree, tight_enc, 0),
            encoder.header_bytes(spread_tree, spread_enc, 0));
}

}  // namespace
}  // namespace elmo
