// Edge cases and cross-cutting properties that do not belong to a single
// module's suite.
#include <gtest/gtest.h>

#include <bitset>
#include <set>

#include "cloud/cloud.h"
#include "elmo/tree_encoder.h"
#include "elmo/evaluator.h"
#include "net/bitmap.h"
#include "testutil.h"
#include "util/rng.h"

namespace elmo {
namespace {

// --- PortBitmap vs std::bitset reference ------------------------------------

TEST(PortBitmapReference, MatchesStdBitsetAcrossWordBoundaries) {
  constexpr std::size_t kPorts = 130;  // spans three 64-bit words
  util::Rng rng{2718};
  for (int trial = 0; trial < 200; ++trial) {
    net::PortBitmap a{kPorts};
    net::PortBitmap b{kPorts};
    std::bitset<kPorts> ra;
    std::bitset<kPorts> rb;
    for (int i = 0; i < 40; ++i) {
      const auto pa = rng.index(kPorts);
      const auto pb = rng.index(kPorts);
      a.set(pa);
      ra.set(pa);
      b.set(pb);
      rb.set(pb);
    }
    EXPECT_EQ(a.popcount(), ra.count());
    EXPECT_EQ((a | b).popcount(), (ra | rb).count());
    EXPECT_EQ((a & b).popcount(), (ra & rb).count());
    EXPECT_EQ(a.hamming_distance(b), (ra ^ rb).count());
    EXPECT_EQ(a.is_subset_of(b), (ra & ~rb).none());
    std::size_t iterated = 0;
    a.for_each_set([&](std::size_t p) {
      EXPECT_TRUE(ra.test(p));
      ++iterated;
    });
    EXPECT_EQ(iterated, ra.count());
  }
}

// --- clustering degenerate limits -------------------------------------------

TEST(ClusteringEdge, HmaxZeroSpillsEverything) {
  const std::vector<LayerInput> inputs{{0, [] {
                                          net::PortBitmap b{8};
                                          b.set(1);
                                          return b;
                                        }()}};
  ClusteringLimits limits;
  limits.hmax = 0;
  const auto out =
      cluster_layer(inputs, limits, [](std::uint32_t) { return true; });
  EXPECT_TRUE(out.p_rules.empty());
  EXPECT_EQ(out.s_rules.size(), 1u);
}

TEST(ClusteringEdge, SingleSwitchSingleRule) {
  net::PortBitmap b{48};
  b.set(7);
  const std::vector<LayerInput> inputs{{42, b}};
  const auto out = cluster_layer(inputs, ClusteringLimits{}, {});
  ASSERT_EQ(out.p_rules.size(), 1u);
  EXPECT_EQ(out.p_rules[0].switch_ids, std::vector<std::uint32_t>{42});
  EXPECT_EQ(out.p_rules[0].bitmap, b);
}

// --- empty and single-member groups ------------------------------------------

TEST(GroupEdge, EmptyGroupEncodesToNothing) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const MulticastTree tree{t, std::vector<topo::HostId>{}};
  EXPECT_EQ(tree.num_members(), 0u);
  const TreeEncoder encoder{t, EncoderConfig{}};
  const auto enc = encoder.encode(tree, nullptr);
  EXPECT_EQ(enc.p_rule_count(), 0u);
  EXPECT_EQ(enc.s_rule_count(), 0u);

  // A sender into an empty group generates exactly one wasted hop
  // (host -> leaf), nothing more.
  const TrafficEvaluator evaluator{t};
  const auto report = evaluator.evaluate(tree, enc, 0, 100);
  EXPECT_EQ(report.delivery.members_expected, 0u);
  EXPECT_EQ(report.elmo_link_transmissions, 1u);
}

TEST(GroupEdge, SelfOnlyGroupDeliversNothing) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const std::vector<topo::HostId> members{5};
  const MulticastTree tree{t, members};
  const TreeEncoder encoder{t, EncoderConfig{}};
  const auto enc = encoder.encode(tree, nullptr);
  const TrafficEvaluator evaluator{t};
  const auto report = evaluator.evaluate(tree, enc, 5, 100);
  EXPECT_EQ(report.delivery.members_expected, 0u);
  EXPECT_TRUE(report.delivery.exactly_once());
  EXPECT_EQ(report.delivery.spurious_deliveries, 0u);
}

TEST(GroupEdge, FullFabricBroadcastGroup) {
  // Every host in a small fabric joins one group: the encoding must still
  // deliver exactly-once everywhere (this exercises default/s-rule paths
  // and the densest bitmaps possible).
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  std::vector<topo::HostId> everyone(t.num_hosts());
  for (topo::HostId h = 0; h < t.num_hosts(); ++h) everyone[h] = h;
  const MulticastTree tree{t, everyone};
  EXPECT_EQ(tree.num_leaves(), t.num_leaves());

  for (const std::size_t r : {0u, 12u}) {
    EncoderConfig cfg;
    cfg.redundancy_limit = r;
    const TreeEncoder encoder{t, cfg};
    SRuleSpace space{t, 1000};
    const auto enc = encoder.encode(tree, &space);
    const TrafficEvaluator evaluator{t};
    const auto report = evaluator.evaluate(tree, enc, 0, 1500);
    EXPECT_TRUE(report.delivery.exactly_once()) << "R=" << r;
    EXPECT_EQ(report.delivery.members_expected, t.num_hosts() - 1);
    encoder.release(enc, space);
  }
}

// --- placement locality property ---------------------------------------------

TEST(PlacementProperty, TenantsStayPodLocalWhenTheyFit) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  util::Rng rng{31};
  cloud::CloudParams params = cloud::CloudParams::small_test();
  params.tenants = 15;
  params.colocation = 4;
  const cloud::Cloud cloud{t, params, rng};

  const std::size_t per_pod_capacity =
      t.params().leaves_per_pod * params.colocation;
  for (const auto& tenant : cloud.tenants()) {
    std::set<topo::PodId> pods;
    for (const auto host : tenant.vm_hosts) pods.insert(t.pod_of_host(host));
    // Pod-filling placement: a tenant uses at most
    // ceil(size / per-pod-quota) pods plus one for fragmentation.
    const std::size_t bound =
        (tenant.size() + per_pod_capacity - 1) / per_pod_capacity + 1;
    EXPECT_LE(pods.size(), bound) << "tenant " << tenant.id;
  }
}

// --- encode is a pure function of membership ----------------------------------

TEST(HeaderProperty, EncodingIsDeterministic) {
  const topo::ClosTopology t{topo::ClosParams::small_test()};
  const TreeEncoder encoder{t, EncoderConfig{}};
  util::Rng rng{88};
  for (int trial = 0; trial < 30; ++trial) {
    const auto hosts = test::random_hosts(t, 4 + rng.index(20), rng);
    const MulticastTree tree_a{t, hosts};
    const MulticastTree tree_b{t, hosts};
    const auto enc_a = encoder.encode(tree_a, nullptr);
    const auto enc_b = encoder.encode(tree_b, nullptr);
    EXPECT_EQ(enc_a, enc_b);
    for (const auto sender : hosts) {
      EXPECT_EQ(encoder.codec().serialize(tree_a.sender_encoding(sender),
                                          enc_a),
                encoder.codec().serialize(tree_b.sender_encoding(sender),
                                          enc_b));
    }
  }
}

}  // namespace
}  // namespace elmo
