// The explain layer (DESIGN.md §10): decision-tree attribution joined
// against the delivery oracle, pinned to the data-plane rule counters and
// the analytic evaluator's redundancy decomposition.
#include "verify/explain.h"

#include <gtest/gtest.h>

#include <array>

#include "elmo/controller.h"
#include "elmo/evaluator.h"
#include "elmo/stream.h"
#include "sim/fabric.h"
#include "verify/differ.h"
#include "verify/scenario.h"

namespace elmo::verify {
namespace {

// Counts hop decisions of one rule class at one layer in a trace.
std::size_t decisions_at(const obs::SendTrace& trace, topo::Layer layer,
                         obs::RuleClass rule) {
  std::size_t n = 0;
  for (const auto& hop : trace.hops) {
    if (!hop.lost && hop.layer == layer && hop.decision.rule == rule) ++n;
  }
  return n;
}

// The tight-header-budget scenario (mirrors mtrace's RedundantCopiesAttributed):
// hmax=1 everywhere and no s-rule capacity forces leaves onto the lossy
// default p-rule, producing spurious copies the explain layer must attribute.
TEST(Explain, TightBudgetAttributionMatchesEvaluatorAndCounters) {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  elmo::EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.hmax_spine = 1;
  cfg.srule_capacity = 0;
  elmo::Controller controller{topology, cfg};
  sim::Fabric fabric{topology};

  std::vector<elmo::Member> members;
  for (std::uint32_t i = 0; i < 12; ++i) {
    members.push_back(elmo::Member{i * 5 % 64, i, elmo::MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});
  const auto& g = controller.group(id);
  const auto sender = members[0].host;

  obs::ProvenanceLog log;
  fabric.set_provenance(&log);
  (void)fabric.send(sender, g.address, std::size_t{64});
  ASSERT_EQ(log.sends().size(), 1u);
  const auto& trace = log.last();

  DeliveryOracle oracle{topology, {}};
  oracle.create_group(members);
  const auto expectation = oracle.expect(0, g.encoding, sender);
  const auto expl = explain_send(trace, expectation);

  // Every member host is still reached, and the tight budget produced
  // default-p-rule spillover that the join attributes as such.
  EXPECT_TRUE(expl.missing.empty());
  EXPECT_EQ(expl.breakdown.intended, expectation.expected_hosts.size());
  EXPECT_GT(expl.breakdown.via_default, 0u);
  EXPECT_EQ(expl.breakdown.duplicates, 0u);
  EXPECT_EQ(expl.breakdown.via_exact_prule, 0u);
  EXPECT_EQ(expl.breakdown.unattributed, 0u);

  // The decomposition sums to the analytic evaluator's overhead accounting.
  const elmo::TrafficEvaluator evaluator{topology};
  const auto hash = topo::group_hash(g.address);
  const auto rep = evaluator.evaluate(*g.tree, g.encoding, sender, 64, hash,
                                      &controller.failures(), nullptr);
  EXPECT_EQ(expl.breakdown.intended, rep.delivery.members_reached);
  EXPECT_EQ(expl.breakdown.total_redundant(),
            rep.delivery.duplicate_deliveries +
                rep.delivery.spurious_deliveries);

  // The decision tree is the per-packet view of the rule-class counters:
  // with exactly one send on a fresh fabric they must agree 1:1, per layer.
  for (const auto layer :
       {topo::Layer::kLeaf, topo::Layer::kSpine, topo::Layer::kCore}) {
    const auto s = fabric.aggregate_switch_stats(layer);
    EXPECT_EQ(decisions_at(trace, layer, obs::RuleClass::kDefault),
              s.default_matches);
    EXPECT_EQ(decisions_at(trace, layer, obs::RuleClass::kSRule),
              s.srule_matches);
    EXPECT_EQ(decisions_at(trace, layer, obs::RuleClass::kUpstream),
              s.upstream_matches);
    EXPECT_EQ(decisions_at(trace, layer, obs::RuleClass::kPRule),
              s.prule_matches);
    EXPECT_EQ(decisions_at(trace, layer, obs::RuleClass::kDrop), s.drops);
  }
  // The render carries the attribution line and at least one flagged copy.
  const auto text = expl.render();
  EXPECT_NE(text.find("attribution:"), std::string::npos);
  EXPECT_NE(text.find("via default p-rule"), std::string::npos);
  EXPECT_NE(text.find("<- intended"), std::string::npos);
}

TEST(Explain, RunnerCapturesEveryCheckedSend) {
  const auto scenario = generate_scenario(3);
  std::vector<SendCapture> captures;
  RunObservability observability;
  observability.captures = &captures;
  const auto report =
      run_scenario(scenario, Mutation::kNone, &observability);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(captures.size(), report.sends_checked);
  for (const auto& capture : captures) {
    EXPECT_EQ(capture.explanation.breakdown.intended,
              capture.evaluator_reached);
    EXPECT_EQ(capture.explanation.breakdown.total_redundant(),
              capture.evaluator_duplicates + capture.evaluator_spurious);
    EXPECT_TRUE(capture.explanation.missing.empty());
  }
}

TEST(Explain, DiffCarriesExplanationForExtraCopy) {
  // kSetPRuleBit seeds an extra delivery the evaluator does not predict: the
  // resulting diff must arrive with the annotated decision tree attached.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto report =
        run_scenario(generate_scenario(seed), Mutation::kSetPRuleBit);
    if (!report.applied || report.ok) continue;
    EXPECT_FALSE(report.explanation.empty());
    EXPECT_NE(report.explanation.find("attribution:"), std::string::npos);
    return;
  }
  FAIL() << "kSetPRuleBit never fired in 20 seeds";
}

TEST(Explain, MissingHostFlaggedInExplanation) {
  // kClearPRuleBit silently drops one member's port bit: the explanation of
  // the failing send must list that host as missing. Pinned to the Elmo
  // encoder: under bert/p3fa the cleared bit can be a shared (non-member)
  // bit, where the diff reports a totals mismatch instead of a missing host.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto scenario = generate_scenario(seed);
    scenario.config.encoder = EncoderKind::kElmo;
    const auto report = run_scenario(scenario, Mutation::kClearPRuleBit);
    if (!report.applied || report.ok) continue;
    EXPECT_FALSE(report.explanation.empty());
    EXPECT_NE(report.explanation.find("MISSING: host"), std::string::npos);
    return;
  }
  FAIL() << "kClearPRuleBit never fired in 20 seeds";
}

}  // namespace
}  // namespace elmo::verify
