// End-to-end checks against the paper's running example (§3.1, Figure 3):
// the 4-pod / 2-spine / 2-leaf / 2-host Clos with the 6-member group
// {Ha, Hb, Hk, Hm, Hn, Hp}, under the design points D1-D5.
#include <gtest/gtest.h>

#include "elmo/tree_encoder.h"
#include "elmo/evaluator.h"

namespace elmo {
namespace {

const std::vector<topo::HostId> kMembers{0, 1, 10, 12, 13, 15};

class RunningExample : public ::testing::Test {
 protected:
  RunningExample()
      : topo_{topo::ClosParams::running_example()}, tree_{topo_, kMembers} {}

  GroupEncoding encode(std::size_t r, std::size_t srule_capacity) {
    EncoderConfig cfg;
    cfg.redundancy_limit = r;
    cfg.hmax_spine = 2;
    cfg.hmax_leaf_override = 2;  // the figure's budget: two rules per layer
    cfg.kmax = 2;                // "max two switches per p-rule"
    cfg.kmax_spine = 2;
    const TreeEncoder encoder{topo_, cfg};
    space_ = std::make_unique<SRuleSpace>(topo_, srule_capacity);
    return encoder.encode(tree_, space_.get());
  }

  topo::ClosTopology topo_;
  MulticastTree tree_;
  std::unique_ptr<SRuleSpace> space_;
};

TEST_F(RunningExample, R0NoSRules_UsesDefaultPRule) {
  // Figure 3a, left column: R=0, #s-rules=0 -> p-rules for two switches per
  // layer, the third mapped to the default p-rule.
  const auto enc = encode(0, 0);
  EXPECT_EQ(enc.spine.p_rules.size(), 2u);
  EXPECT_TRUE(enc.spine.s_rules.empty());
  ASSERT_TRUE(enc.spine.default_rule);
  // Default covers P3 = "11".
  EXPECT_EQ(enc.spine.default_rule->to_string(), "11");

  EXPECT_EQ(enc.leaf.p_rules.size(), 2u);
  ASSERT_TRUE(enc.leaf.default_rule);
  // At R=0, identical bitmaps share: {L0,L6}="11" is one rule; L5 and L7
  // have distinct bitmaps so one of them overflows into the default "01"
  // or "10".
  bool found_shared = false;
  for (const auto& rule : enc.leaf.p_rules) {
    if (rule.switch_ids.size() == 2) {
      EXPECT_EQ(rule.bitmap.to_string(), "11");
      EXPECT_EQ(rule.switch_ids, (std::vector<std::uint32_t>{0, 6}));
      found_shared = true;
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST_F(RunningExample, R0WithSRules_MovesOverflowToGroupTables) {
  // Figure 3a, middle column: R=0, one s-rule slot per switch.
  const auto enc = encode(0, 1);
  EXPECT_EQ(enc.spine.p_rules.size(), 2u);
  EXPECT_EQ(enc.spine.s_rules.size(), 1u);
  EXPECT_FALSE(enc.spine.default_rule);
  EXPECT_EQ(enc.spine.s_rules[0].first, 3u);  // P3
  EXPECT_EQ(enc.spine.s_rules[0].second.to_string(), "11");

  EXPECT_EQ(enc.leaf.p_rules.size(), 2u);
  EXPECT_EQ(enc.leaf.s_rules.size(), 1u);
  EXPECT_FALSE(enc.leaf.default_rule);
}

TEST_F(RunningExample, R2_SharesBitmapsAcrossSwitches) {
  // Figure 3a, right column: R=2 -> everything fits in two rules per layer,
  // no s-rules, no default.
  const auto enc = encode(2, 0);
  EXPECT_EQ(enc.spine.p_rules.size(), 2u);
  EXPECT_TRUE(enc.spine.s_rules.empty());
  EXPECT_FALSE(enc.spine.default_rule);
  EXPECT_EQ(enc.leaf.p_rules.size(), 2u);
  EXPECT_TRUE(enc.leaf.s_rules.empty());
  EXPECT_FALSE(enc.leaf.default_rule);

  // All six switches covered: 3 pods across the spine rules, 4 leaves
  // across the leaf rules.
  std::size_t spine_ids = 0;
  for (const auto& rule : enc.spine.p_rules) spine_ids += rule.switch_ids.size();
  EXPECT_EQ(spine_ids, 3u);
  std::size_t leaf_ids = 0;
  for (const auto& rule : enc.leaf.p_rules) leaf_ids += rule.switch_ids.size();
  EXPECT_EQ(leaf_ids, 4u);
}

TEST_F(RunningExample, AllVariantsDeliverExactlyOnceFromEverySender) {
  const TrafficEvaluator evaluator{topo_};
  for (const auto& [r, srules] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 0}, {0, 1}, {2, 0}}) {
    const auto enc = encode(r, srules);
    for (const auto sender : kMembers) {
      for (std::uint64_t hash : {0ull, 1ull}) {
        const auto report = evaluator.evaluate(tree_, enc, sender, 100, hash);
        EXPECT_TRUE(report.delivery.exactly_once())
            << "R=" << r << " srules=" << srules << " sender=" << sender;
      }
    }
  }
}

TEST_F(RunningExample, DesignProgressionShrinksHeaders) {
  // D1 (naive): one rule per physical tree switch, each with a switch id and
  // full-size bitmap — the paper counts 161 bits for this example. Our
  // format's logical-topology encoding (D2) plus bitmap sharing (D3) must
  // come in far below the equivalent naive encoding.
  const auto naive_bits = [&] {
    // Physical tree of sender Ha: L0 + S0,S1 + 4 cores + S4..S7 spines of
    // P2/P3 + L5,L6,L7 -> count ids and per-layer port bitmaps.
    const unsigned core_id_bits = 2, spine_id_bits = 3, leaf_id_bits = 3;
    const unsigned leaf_ports = 4, spine_ports = 4, core_ports = 4;
    std::size_t bits = 0;
    bits += 4 * (leaf_id_bits + leaf_ports);    // L0, L5, L6, L7
    bits += 6 * (spine_id_bits + spine_ports);  // S0,S1 + two pods x2
    bits += 4 * (core_id_bits + core_ports);    // C0..C3
    return bits;
  }();
  EXPECT_GE(naive_bits, 90u);  // the naive encoding is large (paper: 161b
                               // with its per-rule framing fields)

  const auto enc = encode(2, 0);
  EncoderConfig cfg;
  cfg.hmax_spine = 2;
  cfg.hmax_leaf_override = 2;
  const TreeEncoder encoder{topo_, cfg};
  const auto header_bytes = encoder.header_bytes(tree_, enc, /*Ha=*/0);
  EXPECT_LT(header_bytes * 8, naive_bits);
  EXPECT_LE(header_bytes, 16u);  // compact: tens of bits, not hundreds
}

TEST_F(RunningExample, SRuleReservationsLandOnAllPodSpines) {
  const auto enc = encode(0, 1);
  ASSERT_EQ(enc.spine.s_rules.size(), 1u);
  const auto pod = enc.spine.s_rules[0].first;
  for (std::size_t plane = 0; plane < topo_.params().spines_per_pod; ++plane) {
    EXPECT_EQ(space_->spine_occupancy(topo_.spine_at(pod, plane)), 1u);
  }
}

}  // namespace
}  // namespace elmo
