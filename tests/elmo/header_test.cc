#include "elmo/header.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "elmo/header_corpus.h"
#include "testutil.h"

namespace elmo {
namespace {

topo::ClosTopology example_topo() {
  return topo::ClosTopology{topo::ClosParams::running_example()};
}

net::PortBitmap bitmap_of(std::size_t ports,
                          std::initializer_list<std::size_t> set) {
  net::PortBitmap b{ports};
  for (const auto p : set) b.set(p);
  return b;
}

SenderEncoding simple_sender(const topo::ClosTopology& t) {
  SenderEncoding s;
  s.u_leaf.down = bitmap_of(t.leaf_down_ports(), {1});
  s.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  s.u_leaf.multipath = true;
  UpstreamRule u_spine;
  u_spine.down = net::PortBitmap{t.spine_down_ports()};
  u_spine.up = net::PortBitmap{t.spine_up_ports()};
  u_spine.multipath = true;
  s.u_spine = u_spine;
  s.core_pods = bitmap_of(t.core_ports(), {2, 3});
  return s;
}

GroupEncoding simple_group(const topo::ClosTopology& t) {
  GroupEncoding g;
  g.spine.p_rules.push_back(
      PRule{bitmap_of(t.spine_down_ports(), {1}), {2}});
  g.spine.p_rules.push_back(
      PRule{bitmap_of(t.spine_down_ports(), {0, 1}), {3, 0}});
  g.leaf.p_rules.push_back(
      PRule{bitmap_of(t.leaf_down_ports(), {0, 1}), {0, 6}});
  g.leaf.p_rules.push_back(PRule{bitmap_of(t.leaf_down_ports(), {1}), {5}});
  g.leaf.default_rule = bitmap_of(t.leaf_down_ports(), {0});
  return g;
}

TEST(HeaderCodec, RoundTripFullHeader) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto sender = simple_sender(t);
  const auto group = simple_group(t);
  const auto bytes = codec.serialize(sender, group);

  const auto parsed = codec.parse(bytes);
  ASSERT_TRUE(parsed.u_leaf);
  EXPECT_EQ(parsed.u_leaf->down, sender.u_leaf.down);
  EXPECT_EQ(parsed.u_leaf->multipath, true);
  ASSERT_TRUE(parsed.u_spine);
  EXPECT_EQ(parsed.u_spine->multipath, true);
  ASSERT_TRUE(parsed.core_pods);
  EXPECT_EQ(*parsed.core_pods, *sender.core_pods);
  ASSERT_EQ(parsed.spine_rules.size(), 2u);
  EXPECT_EQ(parsed.spine_rules[0], group.spine.p_rules[0]);
  EXPECT_EQ(parsed.spine_rules[1], group.spine.p_rules[1]);
  EXPECT_FALSE(parsed.spine_default);
  ASSERT_EQ(parsed.leaf_rules.size(), 2u);
  EXPECT_EQ(parsed.leaf_rules[0], group.leaf.p_rules[0]);
  ASSERT_TRUE(parsed.leaf_default);
  EXPECT_EQ(*parsed.leaf_default, *group.leaf.default_rule);
}

TEST(HeaderCodec, MinimalHeaderIsTiny) {
  // Single-rack group: only the u-leaf section plus END.
  const auto t = example_topo();
  const HeaderCodec codec{t};
  SenderEncoding sender;
  sender.u_leaf.down = bitmap_of(t.leaf_down_ports(), {0});
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  const auto bytes = codec.serialize(sender, GroupEncoding{});
  // u-leaf: 3 tag + 1 mp + 2 up + 2 down = 8 bits = 1 byte; END = 1 byte.
  EXPECT_EQ(bytes.size(), 2u);
  const auto parsed = codec.parse(bytes);
  EXPECT_TRUE(parsed.u_leaf);
  EXPECT_FALSE(parsed.u_spine);
  EXPECT_FALSE(parsed.core_pods);
  EXPECT_TRUE(parsed.spine_rules.empty());
  EXPECT_TRUE(parsed.leaf_rules.empty());
}

TEST(HeaderCodec, SectionsAreByteAlignedAndOrdered) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto bytes = codec.serialize(simple_sender(t), simple_group(t));
  const auto sections = codec.scan_sections(bytes);
  ASSERT_GE(sections.size(), 2u);
  EXPECT_EQ(sections.front().begin, 0u);
  int prev_tag = -1;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& s = sections[i];
    EXPECT_EQ(s.begin % 1, 0u);
    if (i > 0) {
      EXPECT_EQ(s.begin, sections[i - 1].end);
    }
    if (s.tag != SectionTag::kEnd) {
      EXPECT_GT(static_cast<int>(s.tag), prev_tag);
      prev_tag = static_cast<int>(s.tag);
    } else {
      EXPECT_EQ(i, sections.size() - 1);
    }
  }
  EXPECT_EQ(codec.header_length(bytes), sections.back().end);
  EXPECT_EQ(codec.header_length(bytes), bytes.size());
}

TEST(HeaderCodec, ScanToleratesTrailingPayload) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  auto bytes = codec.serialize(simple_sender(t), simple_group(t));
  const auto clean_len = bytes.size();
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});  // payload after END
  EXPECT_EQ(codec.header_length(bytes), clean_len);
}

TEST(HeaderCodec, MissingEndThrows) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  auto bytes = codec.serialize(sender, GroupEncoding{});
  bytes.pop_back();  // drop the END byte
  EXPECT_THROW(codec.parse(bytes), std::out_of_range);
}

TEST(HeaderCodec, RejectsRuleWithoutIds) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  GroupEncoding g;
  g.leaf.p_rules.push_back(PRule{bitmap_of(t.leaf_down_ports(), {0}), {}});
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  EXPECT_THROW(codec.serialize(sender, g), std::invalid_argument);
}

TEST(HeaderCodec, RejectsTooManyRules) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  GroupEncoding g;
  for (int i = 0; i < 128; ++i) {
    g.leaf.p_rules.push_back(
        PRule{bitmap_of(t.leaf_down_ports(), {0}), {0}});
  }
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  EXPECT_THROW(codec.serialize(sender, g), std::length_error);
}

TEST(HeaderCodec, MaxHeaderBytesMonotoneInRules) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto small = codec.max_header_bytes(2, 5, 2, 2);
  const auto bigger = codec.max_header_bytes(2, 10, 2, 2);
  const auto wider = codec.max_header_bytes(2, 5, 2, 4);
  EXPECT_LT(small, bigger);
  EXPECT_LT(small, wider);
}

TEST(HeaderCodec, DeriveHmaxRespectsBudget) {
  const topo::ClosTopology fabric{topo::ClosParams::facebook_fabric()};
  const HeaderCodec codec{fabric};
  EncoderConfig cfg;
  cfg.header_budget_bytes = 325;
  const auto hmax = codec.derive_hmax_leaf(cfg);
  EXPECT_LE(codec.max_header_bytes(cfg.hmax_spine, hmax, cfg.kmax_spine,
                                   cfg.kmax),
            325u);
  EXPECT_GT(codec.max_header_bytes(cfg.hmax_spine, hmax + 1, cfg.kmax_spine,
                                   cfg.kmax),
            325u);
  // The paper's configuration: ~30 leaf p-rules within 325 bytes.
  EXPECT_GE(hmax, 25u);
  EXPECT_LE(hmax, 35u);
}

TEST(HeaderCodec, DeriveHmaxHonorsOverride) {
  const topo::ClosTopology fabric{topo::ClosParams::facebook_fabric()};
  const HeaderCodec codec{fabric};
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 10;
  EXPECT_EQ(codec.derive_hmax_leaf(cfg), 10u);
}

TEST(HeaderCodec, RandomEncodingsRoundTrip) {
  const topo::ClosTopology fabric{topo::ClosParams::small_test()};
  const HeaderCodec codec{fabric};
  for (const auto& [sender, group] : test::random_encodings(fabric)) {
    const auto bytes = codec.serialize(sender, group);
    const auto parsed = codec.parse(bytes);
    ASSERT_TRUE(parsed.u_leaf);
    EXPECT_EQ(parsed.u_leaf->down, sender.u_leaf.down);
    EXPECT_EQ(parsed.u_leaf->multipath, sender.u_leaf.multipath);
    ASSERT_EQ(parsed.leaf_rules.size(), group.leaf.p_rules.size());
    for (std::size_t r = 0; r < group.leaf.p_rules.size(); ++r) {
      EXPECT_EQ(parsed.leaf_rules[r], group.leaf.p_rules[r]);
    }
  }
}

// Checks that `shared` spliced behind `sender`'s upstream sections is the
// full header, and that `shared` is that header's suffix from its first
// downstream section (SPINE_RULES, LEAF_RULES or END).
void expect_splice_exact(const HeaderCodec& codec,
                         const SenderEncoding& sender,
                         const GroupEncoding& group) {
  const auto shared = codec.serialize_shared(group);
  const auto header = codec.serialize(sender, group);
  EXPECT_EQ(codec.serialize(sender, shared), header);

  const auto extents = codec.scan_sections(header);
  const auto first = std::find_if(
      extents.begin(), extents.end(), [](const SectionExtent& e) {
        return e.tag == SectionTag::kSpineRules ||
               e.tag == SectionTag::kLeafRules || e.tag == SectionTag::kEnd;
      });
  ASSERT_NE(first, extents.end());
  EXPECT_EQ(std::vector<std::uint8_t>(
                header.begin() + static_cast<std::ptrdiff_t>(first->begin),
                header.end()),
            shared);
}

TEST(HeaderCodec, SharedTailSpliceMatchesSerializeOnRandomEncodings) {
  const topo::ClosTopology fabric{topo::ClosParams::small_test()};
  const HeaderCodec codec{fabric};
  for (const auto& [sender, group] : test::random_encodings(fabric)) {
    expect_splice_exact(codec, sender, group);
  }
  // And on the hand-built header with every section kind.
  const auto t = example_topo();
  expect_splice_exact(HeaderCodec{t}, simple_sender(t), simple_group(t));
}

TEST(HeaderCodec, SharedTailSpliceMatchesSerializeForControllerGroups) {
  const topo::ClosTopology fabric{topo::ClosParams::small_test()};
  for (const auto kind : kAllEncoderKinds) {
    SCOPED_TRACE(to_string(kind));
    EncoderConfig cfg;
    cfg.encoder = kind;
    Controller controller{fabric, cfg};
    util::Rng rng{77};
    std::vector<GroupId> ids;
    for (const std::size_t size : {2, 6, 12, 24, 40}) {
      const auto hosts = test::random_hosts(fabric, size, rng);
      std::vector<Member> members;
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                                 MemberRole::kBoth});
      }
      ids.push_back(controller.create_group(0, members));
    }

    const auto& codec = controller.encoder().codec();
    bool u_spine = false;
    bool core = false;
    bool spine_rules = false;
    bool explicit_up = false;
    auto check_all = [&] {
      for (const auto id : ids) {
        const auto& g = controller.group(id);
        for (const auto host : g.sender_hosts()) {
          const auto route =
              g.tree->sender_route(host, controller.failures());
          expect_splice_exact(codec, route.encoding, g.encoding);
          u_spine = u_spine || route.encoding.u_spine.has_value();
          core = core || route.encoding.core_pods.has_value();
          spine_rules = spine_rules || !g.encoding.spine.p_rules.empty();
          explicit_up = explicit_up || (route.encoding.u_spine &&
                                        !route.encoding.u_leaf.multipath);
        }
      }
    };
    check_all();
    // A failed spine turns multipath off: explicit upstream ports.
    controller.fail_spine(fabric.spine_at(0, 0));
    check_all();
    EXPECT_TRUE(u_spine);
    EXPECT_TRUE(core);
    EXPECT_TRUE(spine_rules);
    EXPECT_TRUE(explicit_up);
  }
}

}  // namespace
}  // namespace elmo
