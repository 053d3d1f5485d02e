// The TreeEncoder contract (DESIGN.md §11) exercised uniformly across every
// EncoderKind: config validation rejects impossible knob combinations with
// a clear message, every scheme covers every tree switch with superset
// bitmaps and a clean switch partition, churn-style encode/release cycles
// return every s-rule reservation to the watermark, and each scheme's exact
// output is pinned by a digest.
#include "elmo/tree_encoder.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "elmo/clustering.h"
#include "elmo/srule_space.h"
#include "elmo/tree.h"
#include "testutil.h"
#include "util/rng.h"

namespace elmo {
namespace {

const topo::ClosTopology& small_topology() {
  static const topo::ClosTopology t{topo::ClosParams::small_test()};
  return t;
}

// --- Satellite: EncoderConfig validation, one test per invalid case. ---

TEST(EncoderConfigValidation, RejectsZeroHmaxSpine) {
  EncoderConfig cfg;
  cfg.hmax_spine = 0;
  EXPECT_THROW((TreeEncoder{small_topology(), cfg}), std::invalid_argument);
}

TEST(EncoderConfigValidation, RejectsZeroKmax) {
  EncoderConfig cfg;
  cfg.kmax = 0;
  EXPECT_THROW((TreeEncoder{small_topology(), cfg}), std::invalid_argument);
}

TEST(EncoderConfigValidation, RejectsHmaxSpineBeyondWireFormat) {
  EncoderConfig cfg;
  cfg.hmax_spine = kMaxRulesPerLayer + 1;  // 7-bit rule count caps at 127
  EXPECT_THROW((TreeEncoder{small_topology(), cfg}), std::invalid_argument);
}

TEST(EncoderConfigValidation, RejectsLeafOverrideBeyondWireFormat) {
  EncoderConfig cfg;
  cfg.hmax_leaf_override = kMaxRulesPerLayer + 1;
  EXPECT_THROW((TreeEncoder{small_topology(), cfg}), std::invalid_argument);
}

TEST(EncoderConfigValidation, RejectsBudgetTooSmallForOneLeafPRule) {
  EncoderConfig cfg;
  cfg.header_budget_bytes = 4;  // cannot fit a single leaf p-rule
  cfg.hmax_leaf_override = 0;   // derivation path is the one that must throw
  EXPECT_THROW((TreeEncoder{small_topology(), cfg}), std::invalid_argument);
}

TEST(EncoderConfigValidation, TinyBudgetFineWhenLeafHmaxOverridden) {
  // The budget floor only applies when hmax_leaf is derived from it; an
  // explicit override takes responsibility for the header size.
  EncoderConfig cfg;
  cfg.header_budget_bytes = 4;
  cfg.hmax_leaf_override = 1;
  EXPECT_NO_THROW((TreeEncoder{small_topology(), cfg}));
}

TEST(EncoderConfigValidation, RejectsZeroP3faEgressClasses) {
  EncoderConfig cfg;
  cfg.encoder = EncoderKind::kP3fa;
  cfg.p3fa_egress_classes = 0;
  EXPECT_THROW((TreeEncoder{small_topology(), cfg}), std::invalid_argument);
  // The knob is P3FA-only: other schemes ignore it.
  cfg.encoder = EncoderKind::kElmo;
  EXPECT_NO_THROW((TreeEncoder{small_topology(), cfg}));
}

TEST(EncoderConfigValidation, RejectsKindWithNoScheme) {
  EncoderConfig cfg;
  cfg.encoder = static_cast<EncoderKind>(std::size(kEncoderSchemes));
  EXPECT_THROW((TreeEncoder{small_topology(), cfg}), std::invalid_argument);
  EXPECT_STREQ(to_string(cfg.encoder), "unknown");
}

TEST(EncoderConfigValidation, ErrorMessagesNameTheOffendingKnob) {
  EncoderConfig cfg;
  cfg.hmax_spine = 0;
  try {
    validate_encoder_config(small_topology(), cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("hmax_spine"), std::string::npos);
  }
}

// --- Per-kind contract tests over the shared EncoderKind matrix. ---

class EncoderMatrix : public ::testing::TestWithParam<EncoderKind> {
 protected:
  EncoderConfig config() const {
    EncoderConfig cfg;
    cfg.encoder = GetParam();
    return cfg;
  }
};

// Per-layer invariants every scheme must uphold: each tree switch is served
// by exactly one of {p-rule, s-rule, default}, p-rule bitmaps are supersets
// of the switch's exact egress set, and no switch id appears in two p-rules.
void expect_layer_contract(const LayerEncoding& layer,
                           const std::vector<LayerInput>& inputs) {
  std::set<std::uint32_t> in_p_rules;
  for (const auto& rule : layer.p_rules) {
    for (const auto id : rule.switch_ids) {
      EXPECT_TRUE(in_p_rules.insert(id).second)
          << "switch " << id << " appears in two p-rules";
    }
  }
  std::set<std::uint32_t> in_s_rules;
  for (const auto& [id, bitmap] : layer.s_rules) {
    EXPECT_TRUE(in_s_rules.insert(id).second);
    EXPECT_FALSE(in_p_rules.count(id))
        << "switch " << id << " has both a p-rule and an s-rule";
  }
  for (const auto& input : inputs) {
    const bool p = in_p_rules.count(input.switch_id) != 0;
    const bool s = in_s_rules.count(input.switch_id) != 0;
    EXPECT_TRUE(p || s || layer.default_rule.has_value())
        << "switch " << input.switch_id << " is uncovered";
    if (p) {
      for (const auto& rule : layer.p_rules) {
        for (const auto id : rule.switch_ids) {
          if (id != input.switch_id) continue;
          EXPECT_TRUE(input.bitmap.is_subset_of(rule.bitmap))
              << "p-rule bitmap drops ports of switch " << input.switch_id;
        }
      }
    } else if (s) {
      for (const auto& [id, bitmap] : layer.s_rules) {
        if (id == input.switch_id) {
          EXPECT_EQ(bitmap, input.bitmap);
        }
      }
    } else {
      EXPECT_TRUE(input.bitmap.is_subset_of(*layer.default_rule));
    }
  }
}

TEST_P(EncoderMatrix, CoversEveryTreeSwitchWithSupersetBitmaps) {
  const auto& t = small_topology();
  util::Rng rng{4242};
  const TreeEncoder encoder{t, config()};
  SRuleSpace space{t, 100};

  for (int trial = 0; trial < 40; ++trial) {
    const auto members =
        test::random_hosts(t, 2 + rng.index(t.num_hosts() / 2), rng);
    const MulticastTree tree{t, members};
    const auto encoding = encoder.encode(tree, &space);

    std::vector<LayerInput> spine_inputs;
    for (const auto& pod : tree.pods()) {
      spine_inputs.push_back(LayerInput{pod.pod, pod.leaf_ports});
    }
    std::vector<LayerInput> leaf_inputs;
    for (const auto& leaf : tree.leaves()) {
      leaf_inputs.push_back(LayerInput{leaf.leaf, leaf.host_ports});
    }
    expect_layer_contract(encoding.spine, spine_inputs);
    expect_layer_contract(encoding.leaf, leaf_inputs);
    encoder.release(encoding, space);
  }
}

TEST_P(EncoderMatrix, HeadersStayWithinBudgetForEverySender) {
  const auto& t = small_topology();
  util::Rng rng{4343};
  const auto cfg = config();
  const TreeEncoder encoder{t, cfg};

  for (int trial = 0; trial < 25; ++trial) {
    const auto members = test::random_hosts(t, 2 + rng.index(30), rng);
    const MulticastTree tree{t, members};
    const auto encoding = encoder.encode(tree, /*space=*/nullptr);
    EXPECT_LE(encoding.spine.p_rules.size(), encoder.config().hmax_spine);
    EXPECT_LE(encoding.leaf.p_rules.size(), encoder.hmax_leaf());
    for (const auto sender : members) {
      EXPECT_LE(encoder.header_bytes(tree, encoding, sender),
                cfg.header_budget_bytes);
    }
  }
}

// Churn-style leak check: repeated encode/release cycles under a tight
// header budget (forcing s-rule traffic) must restore the reservation
// watermark exactly — under Fmax pressure a leaked entry would starve
// later groups (ISSUE 6 satellite).
TEST_P(EncoderMatrix, ChurnReleaseRestoresSRuleWatermark) {
  const auto& t = small_topology();
  util::Rng rng{4444};
  auto cfg = config();
  cfg.hmax_leaf_override = 1;  // spill most leaves to s-rules / default
  cfg.hmax_spine = 1;
  const TreeEncoder encoder{t, cfg};
  SRuleSpace space{t, 4};  // finite Fmax so reservations actually contend

  for (int cycle = 0; cycle < 30; ++cycle) {
    const auto members = test::random_hosts(t, 4 + rng.index(40), rng);
    const MulticastTree tree{t, members};
    const auto encoding = encoder.encode(tree, &space);
    if (cycle % 3 == 0) {
      // Exercise the s-rule path for real before releasing.
      EXPECT_LE(encoding.leaf.s_rules.size(), t.num_leaves() * 4);
    }
    encoder.release(encoding, space);
    EXPECT_DOUBLE_EQ(space.leaf_stats().sum(), 0.0)
        << "leaked leaf s-rule after cycle " << cycle;
    EXPECT_DOUBLE_EQ(space.spine_stats().sum(), 0.0)
        << "leaked spine s-rule after cycle " << cycle;
  }
}

// Legacy leaves reserve their s-rule before clustering runs; release must
// return those too, for every scheme (§7 incremental deployment).
TEST_P(EncoderMatrix, LegacyLeafReservationsReleasedToo) {
  const auto& t = small_topology();
  util::Rng rng{4545};
  const TreeEncoder encoder{t, config()};
  SRuleSpace space{t, 8};
  std::vector<bool> legacy(t.num_leaves(), false);
  for (std::size_t i = 0; i < legacy.size(); i += 2) legacy[i] = true;

  for (int cycle = 0; cycle < 15; ++cycle) {
    const auto members = test::random_hosts(t, 6 + rng.index(24), rng);
    const MulticastTree tree{t, members};
    const auto encoding = encoder.encode(tree, &space, &legacy);
    encoder.release(encoding, space);
  }
  EXPECT_DOUBLE_EQ(space.leaf_stats().sum(), 0.0);
  EXPECT_DOUBLE_EQ(space.spine_stats().sum(), 0.0);
}

// Determinism is load-bearing: the controller's speculative parallel encode
// replays reservation outcomes and compares encodings by value.
TEST_P(EncoderMatrix, EncodeIsDeterministic) {
  const auto& t = small_topology();
  util::Rng rng{4646};
  const TreeEncoder encoder{t, config()};
  for (int trial = 0; trial < 10; ++trial) {
    const auto members = test::random_hosts(t, 2 + rng.index(40), rng);
    const MulticastTree tree{t, members};
    const auto a = encoder.encode(tree, nullptr);
    const auto b = encoder.encode(tree, nullptr);
    EXPECT_EQ(a, b);
    const TreeEncoder copy = encoder;  // a value type: copies keep the scheme
    EXPECT_EQ(copy.encode(tree, nullptr), a);
  }
}

TEST_P(EncoderMatrix, NameAndKindRoundTrip) {
  const TreeEncoder encoder{small_topology(), config()};
  EXPECT_EQ(encoder.config().encoder, GetParam());
  EXPECT_EQ(parse_encoder_kind(to_string(GetParam())), GetParam());
}

// FNV-1a over the little-endian bytes of `value`.
void fold(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (8 * byte)) & 0xffU;
    digest *= 0x100000001b3ULL;
  }
}

void fold(std::uint64_t& digest, const net::PortBitmap& bitmap) {
  fold(digest, bitmap.size());
  for (const auto word : bitmap.words()) fold(digest, word);
}

void fold(std::uint64_t& digest, const LayerEncoding& layer) {
  fold(digest, layer.p_rules.size());
  for (const auto& rule : layer.p_rules) {
    fold(digest, rule.bitmap);
    fold(digest, rule.switch_ids.size());
    for (const auto id : rule.switch_ids) fold(digest, id);
  }
  fold(digest, layer.default_rule.has_value());
  if (layer.default_rule) fold(digest, *layer.default_rule);
  fold(digest, layer.s_rules.size());
  for (const auto& [id, bitmap] : layer.s_rules) {
    fold(digest, id);
    fold(digest, bitmap);
  }
}

// The exact output of every scheme, pinned: a fixed seeded corpus encoded
// with no s-rule space, with a finite one (Fmax runs out part way) and with
// a legacy-leaf mask, under budgets tight enough to spill. A change that
// moves any rule, rule order, s-rule or default bitmap moves the digest; a
// deliberate output change re-pins it.
TEST(EncoderMatrix, EncodingsMatchRecordedDigest) {
  const auto& t = small_topology();
  std::vector<bool> legacy(t.num_leaves(), false);
  for (std::size_t i = 0; i < legacy.size(); i += 3) legacy[i] = true;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto kind : kAllEncoderKinds) {
    EncoderConfig cfg;
    cfg.encoder = kind;
    cfg.hmax_spine = 2;
    cfg.hmax_leaf_override = 3;
    cfg.redundancy_limit = 2;
    const TreeEncoder encoder{t, cfg};
    SRuleSpace space{t, 6};
    SRuleSpace legacy_space{t, 6};
    util::Rng rng{2019};
    for (int trial = 0; trial < 30; ++trial) {
      const auto members = test::random_hosts(t, 2 + rng.index(40), rng);
      const MulticastTree tree{t, members};
      for (const auto& encoding :
           {encoder.encode(tree, nullptr), encoder.encode(tree, &space),
            encoder.encode(tree, &legacy_space, &legacy)}) {
        fold(digest, encoding.spine);
        fold(digest, encoding.leaf);
      }
    }
  }
  EXPECT_EQ(digest, 0xfbce0426286a8481ULL);
}

// P3FA's defining bound: at most E distinct egress bitmaps per downstream
// layer, counting p-rules and the default rule.
TEST(P3faScheme, BoundsDistinctEgressBitmaps) {
  const auto& t = small_topology();
  util::Rng rng{4747};
  EncoderConfig cfg;
  cfg.encoder = EncoderKind::kP3fa;
  cfg.p3fa_egress_classes = 2;
  cfg.hmax_leaf_override = kMaxRulesPerLayer;  // no spill: pure quantization
  cfg.hmax_spine = kMaxRulesPerLayer;
  const TreeEncoder encoder{t, cfg};

  for (int trial = 0; trial < 20; ++trial) {
    const auto members = test::random_hosts(t, 8 + rng.index(40), rng);
    const MulticastTree tree{t, members};
    const auto encoding = encoder.encode(tree, nullptr);
    std::set<std::vector<bool>> distinct;
    auto key = [&](const net::PortBitmap& bm) {
      std::vector<bool> bits(t.params().hosts_per_leaf);
      for (std::size_t p = 0; p < bits.size(); ++p) bits[p] = bm.test(p);
      return bits;
    };
    for (const auto& rule : encoding.leaf.p_rules) {
      distinct.insert(key(rule.bitmap));
    }
    if (encoding.leaf.default_rule) {
      distinct.insert(key(*encoding.leaf.default_rule));
    }
    EXPECT_LE(distinct.size(), cfg.p3fa_egress_classes);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EncoderMatrix,
                         ::testing::ValuesIn(kAllEncoderKinds),
                         [](const auto& info) {
                           return std::string{to_string(info.param)};
                         });

}  // namespace
}  // namespace elmo
