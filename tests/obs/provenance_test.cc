// Tentpole coverage (DESIGN.md §10): the ProvenanceLog built by a fabric
// walk is a well-formed decision tree — every hop linked under its parent,
// every decision attributed to a rule class — attachment is strictly
// opt-in, and the rendered tree of a fixed send is pinned byte for byte.
#include "obs/provenance.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "elmo/controller.h"
#include "sim/fabric.h"

namespace elmo::obs {
namespace {

struct ProvenanceFixture : ::testing::Test {
  ProvenanceFixture()
      : topology{topo::ClosParams::small_test()},
        controller{topology, elmo::EncoderConfig{}},
        fabric{topology} {}

  elmo::GroupId make_group(const std::vector<topo::HostId>& hosts) {
    std::vector<elmo::Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(elmo::Member{hosts[i], static_cast<std::uint32_t>(i),
                                     elmo::MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    fabric.install_group(controller, id);
    return id;
  }

  topo::ClosTopology topology;
  elmo::Controller controller;
  sim::Fabric fabric;
  ProvenanceLog log;
};

TEST_F(ProvenanceFixture, WalkBuildsLinkedDecisionTree) {
  const auto id = make_group({0, 1, 17, 33});
  fabric.set_provenance(&log);
  const auto res =
      fabric.send(0, controller.group(id).address, std::size_t{64});

  ASSERT_EQ(log.sends().size(), 1u);
  const auto& trace = log.last();
  EXPECT_EQ(trace.src_host, 0u);
  ASSERT_FALSE(trace.hops.empty());

  // Root: the sending host, marked kSource, parentless.
  EXPECT_EQ(trace.hops[0].layer, topo::Layer::kHost);
  EXPECT_EQ(trace.hops[0].node, 0u);
  EXPECT_EQ(trace.hops[0].parent, kNoProvParent);
  EXPECT_EQ(trace.hops[0].decision.rule, RuleClass::kSource);

  std::size_t deliveries = 0;
  for (std::size_t i = 1; i < trace.hops.size(); ++i) {
    const auto& hop = trace.hops[i];
    // Parent linkage is consistent both ways.
    ASSERT_LT(hop.parent, i);
    const auto& siblings = trace.hops[hop.parent].children;
    EXPECT_NE(std::find(siblings.begin(), siblings.end(), i), siblings.end());
    // Every processed hop carries a decision.
    EXPECT_NE(hop.decision.rule, RuleClass::kNone);
    if (hop.layer == topo::Layer::kHost) {
      EXPECT_EQ(hop.decision.rule, RuleClass::kHostDeliver);
      EXPECT_GE(hop.decision.vm_deliveries, 1u);
      // Hosts strip the outer header + any surviving Elmo bytes.
      EXPECT_GE(hop.decision.popped_bytes, net::kOuterHeaderBytes);
      ++deliveries;
    } else {
      // A switch hop that replicated must expose its egress set.
      if (!hop.children.empty()) {
        EXPECT_TRUE(hop.decision.egress.any());
      }
    }
  }
  // One host hop per delivered copy.
  std::size_t copies = 0;
  for (const auto& [host, n] : res.host_copies) copies += n;
  EXPECT_EQ(deliveries, copies);

  // Cross-pod walk pops header sections somewhere along the way.
  std::size_t popped = 0;
  for (const auto& hop : trace.hops) popped += hop.decision.popped_bytes;
  EXPECT_GT(popped, 0u);
}

TEST_F(ProvenanceFixture, DetachedFabricRecordsNothing) {
  const auto id = make_group({0, 17});
  fabric.set_provenance(&log);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  ASSERT_EQ(log.sends().size(), 1u);

  fabric.set_provenance(nullptr);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  EXPECT_EQ(log.sends().size(), 1u);  // detached send left no trace
}

TEST_F(ProvenanceFixture, LossModelRecordsLostCopies) {
  const auto id = make_group({0, 1});
  fabric.set_provenance(&log);
  fabric.set_loss(1.0);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});

  ASSERT_EQ(log.sends().size(), 1u);
  const auto& trace = log.last();
  // Root + the first host->leaf copy, dropped in flight.
  ASSERT_EQ(trace.hops.size(), 2u);
  EXPECT_TRUE(trace.hops[1].lost);
  EXPECT_EQ(trace.hops[1].layer, topo::Layer::kLeaf);
  EXPECT_NE(render_trace(trace).find("[lost in flight]"), std::string::npos);
}

TEST_F(ProvenanceFixture, RenderNamesNodesAndRules) {
  const auto id = make_group({0, 17});
  fabric.set_provenance(&log);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});

  const auto text = render_trace(log.last());
  EXPECT_NE(text.find("host0"), std::string::npos);
  EXPECT_NE(text.find("L0"), std::string::npos);
  EXPECT_NE(text.find("host17"), std::string::npos);
  EXPECT_NE(text.find("[source"), std::string::npos);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_NE(text.find("egress="), std::string::npos);
}

// A cross-pod send under a one-p-rule leaf budget: the sender's leaf and
// spine take their upstream rules, the core its p-rule, the destination
// spines their pod p-rules, one leaf its p-rule and the rest of the leaves
// their spilled s-rules; every member host delivers. The rendering is
// pinned byte for byte, so any drift in a recorded decision or its text
// shows here.
TEST(ProvenanceGolden, CrossPodSendRenderIsPinned) {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  elmo::EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.kmax = 1;
  elmo::Controller controller{topology, cfg};
  sim::Fabric fabric{topology};
  std::vector<elmo::Member> members;
  for (const topo::HostId host : {0u, 1u, 5u, 22u, 27u, 41u, 62u}) {
    members.push_back(elmo::Member{host, host, elmo::MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  fabric.install_group(controller, id);
  ProvenanceLog log;
  fabric.set_provenance(&log);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});

  const std::string golden = R"(send group=4009754624 from host0 (17 hops)
host0  [source, 128B on wire]
  L0  [upstream ports=0100 up=multipath egress=010010 popped 16B, 128B in]
    host1  [deliver popped 50B (1 VMs), 114B in]
    S0  [upstream ports=0100 up=multipath egress=010001 popped 10B, 126B in]
      L1  [s-rule ports=0100 egress=010000 popped 4B, 118B in]
        host5  [deliver popped 50B (1 VMs), 114B in]
      C1  [p-rule ports=0111 egress=0111 popped 1B, 124B in]
        S2  [p-rule #2 ports=0110 egress=011000 popped 5B, 123B in]
          L5  [s-rule ports=0010 egress=001000 popped 4B, 118B in]
            host22  [deliver popped 50B (1 VMs), 114B in]
          L6  [p-rule #0 ports=0001 egress=000100 popped 4B, 118B in]
            host27  [deliver popped 50B (1 VMs), 114B in]
        S4  [p-rule #1 ports=0010 egress=001000 popped 5B, 123B in]
          L10  [s-rule ports=0100 egress=010000 popped 4B, 118B in]
            host41  [deliver popped 50B (1 VMs), 114B in]
        S6  [p-rule #0 ports=0001 egress=000100 popped 5B, 123B in]
          L15  [s-rule ports=0010 egress=001000 popped 4B, 118B in]
            host62  [deliver popped 50B (1 VMs), 114B in]
)";
  EXPECT_EQ(render_trace(log.last()), golden);
}

TEST_F(ProvenanceFixture, ClearDropsEveryTrace) {
  const auto id = make_group({0, 1});
  fabric.set_provenance(&log);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  EXPECT_EQ(log.sends().size(), 2u);
  log.clear();
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace elmo::obs
