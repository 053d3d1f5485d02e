// The switch's one-pass parse (HeaderCodec::parse_layer) and the per-layer
// index behind it (index_layer + SectionIndex::lookup) against their
// specification: the values a full parse() plus scan_sections() yield for
// that switch's layer, and the same exception type on the same input.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "elmo/header.h"
#include "elmo/header_corpus.h"

namespace elmo {
namespace {

// The reference: decode everything, then pick this layer's rules out.
LayerParse reference(const HeaderCodec& codec,
                     std::span<const std::uint8_t> data, topo::Layer layer,
                     std::uint32_t match_id) {
  LayerParse ref;
  ref.sections = codec.scan_sections(data);
  const auto header = codec.parse(data);
  const std::vector<PRule>* rules = nullptr;
  switch (layer) {
    case topo::Layer::kLeaf:
      ref.upstream = header.u_leaf;
      ref.default_rule = header.leaf_default;
      rules = &header.leaf_rules;
      break;
    case topo::Layer::kSpine:
      ref.upstream = header.u_spine;
      ref.default_rule = header.spine_default;
      rules = &header.spine_rules;
      break;
    case topo::Layer::kCore:
      ref.core_bitmap = header.core_pods;
      break;
    case topo::Layer::kHost:
      break;
  }
  for (std::size_t ri = 0; rules != nullptr && ri < rules->size(); ++ri) {
    const auto& ids = (*rules)[ri].switch_ids;
    if (std::find(ids.begin(), ids.end(), match_id) != ids.end()) {
      ref.matched = (*rules)[ri].bitmap;
      ref.matched_index = static_cast<int>(ri);
      ref.matched_shared = ids.size() > 1;
      break;
    }
  }
  return ref;
}

// Which typed exception `fn` throws ("" if none).
std::string thrown_by(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::out_of_range&) {
    return "out_of_range";
  } catch (const std::invalid_argument&) {
    return "invalid_argument";
  } catch (const std::length_error&) {
    return "length_error";
  } catch (const std::exception&) {
    return "other";
  }
  return "";
}

void expect_same(const LayerParse& got, const LayerParse& want) {
  ASSERT_EQ(got.upstream.has_value(), want.upstream.has_value());
  if (want.upstream) {
    EXPECT_EQ(got.upstream->down, want.upstream->down);
    EXPECT_EQ(got.upstream->up, want.upstream->up);
    EXPECT_EQ(got.upstream->multipath, want.upstream->multipath);
  }
  EXPECT_EQ(got.matched, want.matched);
  EXPECT_EQ(got.matched_index, want.matched_index);
  EXPECT_EQ(got.matched_shared, want.matched_shared);
  EXPECT_EQ(got.default_rule, want.default_rule);
  EXPECT_EQ(got.core_bitmap, want.core_bitmap);
  ASSERT_EQ(got.sections.size(), want.sections.size());
  for (std::size_t i = 0; i < want.sections.size(); ++i) {
    EXPECT_EQ(got.sections[i].tag, want.sections[i].tag) << "section " << i;
    EXPECT_EQ(got.sections[i].begin, want.sections[i].begin) << "section " << i;
    EXPECT_EQ(got.sections[i].end, want.sections[i].end) << "section " << i;
  }
}

// Every layer, every identifier the id fields can carry, through both
// parse_layer() and one SectionIndex per layer that every id then looks up
// in (as every switch of a layer shares one index per walk). `out` and
// `index` are reused across calls, as a switch and a walk reuse them.
void check_all_layers(const HeaderCodec& codec,
                      std::span<const std::uint8_t> data,
                      const std::string& what) {
  const auto& t = codec.topology();
  LayerParse out;
  LayerParse looked_up;
  SectionIndex index;
  const std::pair<topo::Layer, unsigned> layers[] = {
      {topo::Layer::kLeaf, t.leaf_id_bits()},
      {topo::Layer::kSpine, t.pod_id_bits()},
      {topo::Layer::kCore, 0}};
  for (const auto& [layer, id_bits] : layers) {
    const auto index_error =
        thrown_by([&] { codec.index_layer(data, layer, index); });
    for (std::uint32_t id = 0; id < (1u << id_bits); ++id) {
      SCOPED_TRACE(what + " layer " + std::to_string(static_cast<int>(layer)) +
                   " id " + std::to_string(id));
      LayerParse want;
      const auto want_error =
          thrown_by([&] { want = reference(codec, data, layer, id); });
      const auto got_error =
          thrown_by([&] { codec.parse_layer(data, layer, id, out); });
      ASSERT_EQ(got_error, want_error);
      ASSERT_EQ(index_error, want_error);
      if (!want_error.empty()) continue;
      expect_same(out, want);
      index.lookup(id, looked_up);
      expect_same(looked_up, want);
    }
  }
}

TEST(ParseLayer, MatchesFullParseOnRandomEncodings) {
  for (const auto& params :
       {topo::ClosParams::small_test(),
        topo::ClosParams{.pods = 2,
                         .leaves_per_pod = 2,
                         .spines_per_pod = 2,
                         .cores_per_plane = 2,
                         .hosts_per_leaf = 96}}) {
    const topo::ClosTopology fabric{params};
    const HeaderCodec codec{fabric};
    int trial = 0;
    for (const auto& [sender, group] : test::random_encodings(fabric)) {
      check_all_layers(codec, codec.serialize(sender, group),
                       "encoding " + std::to_string(trial++));
    }
  }
}

TEST(ParseLayer, MatchesFullParseOnTruncatedHeaders) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const HeaderCodec codec{t};
  const auto full = test::full_header(t);
  for (std::size_t len = 0; len <= full.size(); ++len) {
    const std::vector<std::uint8_t> cut{full.begin(), full.begin() + len};
    check_all_layers(codec, cut, "length " + std::to_string(len));
  }
}

TEST(ParseLayer, MatchesFullParseOnBitflippedPackets) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const HeaderCodec codec{t};
  int trial = 0;
  for (const auto& packet : test::bitflipped(test::encapsulated_probe(t))) {
    check_all_layers(codec, packet.bytes().subspan(net::kOuterHeaderBytes),
                     "flip " + std::to_string(trial++));
  }
}

// Two LEAF_RULES sections: p-rules are numbered across both, the first
// match wins, and a default survives a later section without one.
TEST(ParseLayer, RepeatedRuleSectionsNumberAcrossSections) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const HeaderCodec codec{t};
  auto ports = [&](std::initializer_list<std::size_t> set) {
    net::PortBitmap b{t.leaf_down_ports()};
    for (const auto p : set) b.set(p);
    return b;
  };
  SenderEncoding sender;
  sender.u_leaf.down = ports({0});
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  GroupEncoding first;
  first.leaf.p_rules = {PRule{ports({1}), {1}}, PRule{ports({2}), {2, 5}}};
  first.leaf.default_rule = ports({3});
  GroupEncoding second;
  second.leaf.p_rules = {PRule{ports({0, 1}), {5}}, PRule{ports({2, 3}), {7}}};

  // U_LEAF, LEAF_RULES(first), LEAF_RULES(second), END.
  auto bytes = codec.serialize(sender, first);
  bytes.pop_back();  // END
  const auto tail = codec.serialize(sender, second);
  const auto sections = codec.scan_sections(tail);
  ASSERT_EQ(sections[1].tag, SectionTag::kLeafRules);
  bytes.insert(bytes.end(), tail.begin() + sections[1].begin, tail.end());
  ASSERT_EQ(codec.scan_sections(bytes).size(), 4u);

  check_all_layers(codec, bytes, "two leaf sections");
  LayerParse out;
  codec.parse_layer(bytes, topo::Layer::kLeaf, 7, out);
  EXPECT_EQ(out.matched_index, 3);
  EXPECT_EQ(out.matched, ports({2, 3}));
  EXPECT_EQ(out.default_rule, ports({3}));
  codec.parse_layer(bytes, topo::Layer::kLeaf, 5, out);
  EXPECT_EQ(out.matched_index, 1);  // first section's shared rule wins
  EXPECT_TRUE(out.matched_shared);
  EXPECT_EQ(out.matched, ports({2}));
}

// Refilling an index drops everything the previous header put in it: a
// long header (every section kind, several p-rules, a default) indexed
// first, then a short one (U_LEAF + END), into the same SectionIndex.
TEST(SectionIndex, RefillLeavesNothingStale) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const HeaderCodec codec{t};
  auto ports = [&](std::initializer_list<std::size_t> set) {
    net::PortBitmap b{t.leaf_down_ports()};
    for (const auto p : set) b.set(p);
    return b;
  };
  auto long_header = test::full_header(t);
  {
    // full_header plus more leaf p-rules and a leaf default.
    SenderEncoding sender;
    sender.u_leaf.down = ports({1});
    sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
    GroupEncoding group;
    group.leaf.p_rules = {PRule{ports({0}), {0, 1}}, PRule{ports({2}), {2}},
                          PRule{ports({3}), {4, 5, 6}}};
    group.leaf.default_rule = ports({0, 3});
    const auto extra = codec.serialize(sender, group);
    const auto sections = codec.scan_sections(extra);
    ASSERT_EQ(sections[1].tag, SectionTag::kLeafRules);
    long_header.pop_back();  // END
    long_header.insert(long_header.end(), extra.begin() + sections[1].begin,
                       extra.end());
  }
  SenderEncoding short_sender;
  short_sender.u_leaf.down = ports({2});
  short_sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  short_sender.u_leaf.multipath = false;
  const auto short_header = codec.serialize(short_sender, GroupEncoding{});
  ASSERT_LT(short_header.size(), long_header.size());

  for (const auto layer :
       {topo::Layer::kLeaf, topo::Layer::kSpine, topo::Layer::kCore}) {
    SCOPED_TRACE("layer " + std::to_string(static_cast<int>(layer)));
    SectionIndex index;
    LayerParse got;
    codec.index_layer(long_header, layer, index);
    index.lookup(5, got);
    expect_same(got, reference(codec, long_header, layer, 5));
    if (layer == topo::Layer::kLeaf) {
      ASSERT_TRUE(got.matched.has_value());  // the long header's rules hit
      ASSERT_TRUE(got.default_rule.has_value());
    }

    codec.index_layer(short_header, layer, index);
    for (std::uint32_t id = 0; id < (1u << t.leaf_id_bits()); ++id) {
      SCOPED_TRACE("id " + std::to_string(id));
      index.lookup(id, got);
      expect_same(got, reference(codec, short_header, layer, id));
      EXPECT_EQ(got.sections.size(), 2u);  // U_LEAF, END
      EXPECT_FALSE(got.matched.has_value());
      EXPECT_FALSE(got.default_rule.has_value());
      EXPECT_FALSE(got.core_bitmap.has_value());
    }
  }
}

}  // namespace
}  // namespace elmo
