#include "p4gen/p4gen.h"

#include <gtest/gtest.h>

#include "elmo/tree_encoder.h"

namespace elmo::p4gen {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

topo::ClosTopology fabric() {
  return topo::ClosTopology{topo::ClosParams::facebook_fabric()};
}

TEST(P4Options, DerivesFromEncoderConfig) {
  const auto t = fabric();
  EncoderConfig cfg;
  const TreeEncoder encoder{t, cfg};
  const auto opt = P4Options::from_config(cfg, encoder.hmax_leaf());
  EXPECT_EQ(opt.hmax_spine, cfg.hmax_spine);
  EXPECT_EQ(opt.hmax_leaf, encoder.hmax_leaf());
  EXPECT_EQ(opt.kmax, cfg.kmax);
}

TEST(P4Widths, MatchTopology) {
  const auto t = fabric();
  const auto w = P4Widths::of(t);
  EXPECT_EQ(w.leaf_ports, 48u);
  EXPECT_EQ(w.leaf_up_ports, 4u);
  EXPECT_EQ(w.spine_ports, 48u);
  EXPECT_EQ(w.core_ports, 12u);
  EXPECT_EQ(w.leaf_id_bits, 10u);
  EXPECT_EQ(w.pod_id_bits, 4u);
}

TEST(NetworkProgram, ContainsPipelineSkeleton) {
  const auto t = fabric();
  P4Options opt;
  const auto p4 = network_switch_program(t, opt);
  EXPECT_NE(p4.find("parser ElmoParser"), std::string::npos);
  EXPECT_NE(p4.find("control ElmoIngress"), std::string::npos);
  EXPECT_NE(p4.find("control ElmoEgress"), std::string::npos);
  EXPECT_NE(p4.find("table group_table"), std::string::npos);
  EXPECT_NE(p4.find("bitmap_port_select"), std::string::npos);
  EXPECT_NE(p4.find("#include <v1model.p4>"), std::string::npos);
}

TEST(NetworkProgram, UnrollsOneParserStatePerPRule) {
  const auto t = fabric();
  P4Options opt;
  opt.hmax_leaf = 30;
  opt.hmax_spine = 6;
  const auto p4 = network_switch_program(t, opt);
  // 30 leaf rule states plus extraction of each slot in the header struct.
  EXPECT_EQ(count_occurrences(p4, "state parse_leaf_rule_"), 30u);
  EXPECT_EQ(count_occurrences(p4, "state parse_spine_rule_"), 6u);
  EXPECT_NE(p4.find("leaf_rule_29"), std::string::npos);
  EXPECT_EQ(p4.find("leaf_rule_30;"), std::string::npos);
}

TEST(NetworkProgram, BitWidthsFollowTopology) {
  // A different fabric shape must change the generated widths.
  const topo::ClosTopology small{topo::ClosParams::small_test()};
  P4Options opt;
  const auto p4 = network_switch_program(small, opt);
  // 4 host ports per leaf -> bit<4> bitmaps; 16 leaves -> bit<4> ids.
  EXPECT_NE(p4.find("bit<4> down_ports;"), std::string::npos);
  EXPECT_NE(p4.find("bit<4> pod_bitmap;"), std::string::npos);

  const auto big = network_switch_program(
      topo::ClosTopology{topo::ClosParams::facebook_fabric()}, opt);
  EXPECT_NE(big.find("bit<48> down_ports;"), std::string::npos);
  EXPECT_NE(big.find("bit<12> pod_bitmap;"), std::string::npos);
  EXPECT_NE(big.find("bit<10> id0;"), std::string::npos);
}

TEST(NetworkProgram, ParserDoesTheMatchAndSet) {
  const auto p4 = network_switch_program(fabric(), P4Options{});
  // The Appendix-A point: identifier comparison happens in parser states,
  // not in a match-action table.
  EXPECT_NE(p4.find("id0 == SWITCH_ID && meta.matched == 0"),
            std::string::npos);
  // The only match-action table is the s-rule group table ("table <name>"
  // at the start of a declaration line).
  EXPECT_EQ(count_occurrences(p4, "\n    table "), 1u);
  EXPECT_NE(p4.find("table group_table"), std::string::npos);
}

TEST(NetworkProgram, EgressInvalidatesConsumedSections) {
  const auto p4 = network_switch_program(fabric(), P4Options{});
  EXPECT_NE(p4.find("hdr.u_leaf.setInvalid()"), std::string::npos);
  EXPECT_NE(p4.find("hdr.vxlan.elmo_present = 0;"), std::string::npos);
  // Host-bound copies invalidate every leaf rule slot.
  EXPECT_GE(count_occurrences(p4, ".setInvalid();"),
            P4Options{}.hmax_leaf + P4Options{}.hmax_spine);
}

TEST(NetworkProgram, GroupTableSizeConfigurable) {
  P4Options opt;
  opt.group_table_size = 5000;
  const auto p4 = network_switch_program(fabric(), opt);
  EXPECT_NE(p4.find("size = 5000;"), std::string::npos);
}

TEST(HypervisorProgram, SingleBlobEncap) {
  const auto p4 = hypervisor_switch_program(fabric(), P4Options{});
  EXPECT_NE(p4.find("header elmo_blob_t"), std::string::npos);
  EXPECT_NE(p4.find("varbit<"), std::string::npos);
  EXPECT_NE(p4.find("table group_flows"), std::string::npos);
  EXPECT_NE(p4.find("encap_and_send"), std::string::npos);
  EXPECT_NE(p4.find("default_action = drop();"), std::string::npos);
  // The hypervisor program has no per-p-rule headers at all (§4.2).
  EXPECT_EQ(p4.find("leaf_rule_0"), std::string::npos);
}

TEST(Programs, BracesBalance) {
  for (const auto& p4 :
       {network_switch_program(fabric(), P4Options{}),
        hypervisor_switch_program(fabric(), P4Options{})}) {
    std::ptrdiff_t depth = 0;
    for (const char c : p4) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
      ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
  }
}

}  // namespace
}  // namespace elmo::p4gen
