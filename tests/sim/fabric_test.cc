#include "sim/fabric.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "elmo/header.h"
#include "elmo/stream.h"
#include "obs/timeseries.h"
#include "testutil.h"

namespace elmo::sim {
namespace {

struct FabricFixture : ::testing::Test {
  FabricFixture()
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
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
    return id;
  }

  topo::ClosTopology topology;
  elmo::Controller controller;
  Fabric fabric;
};

TEST_F(FabricFixture, SingleRackDelivery) {
  const auto id = make_group({0, 1, 2});
  const auto result =
      fabric.send(0, controller.group(id).address, 200);
  EXPECT_EQ(result.host_copies.size(), 2u);
  EXPECT_TRUE(result.host_copies.contains(1));
  EXPECT_TRUE(result.host_copies.contains(2));
  EXPECT_FALSE(result.host_copies.contains(0));  // no self-delivery
  EXPECT_EQ(result.vm_deliveries, 2u);
  EXPECT_EQ(result.max_hops, 1u);  // only the leaf
}

TEST_F(FabricFixture, CrossPodDelivery) {
  const auto id = make_group({0, 17, 35});
  const auto result = fabric.send(0, controller.group(id).address, 200);
  EXPECT_EQ(result.host_copies.size(), 2u);
  EXPECT_TRUE(result.host_copies.contains(17));
  EXPECT_TRUE(result.host_copies.contains(35));
  EXPECT_GE(result.max_hops, 4u);  // leaf-spine-core-spine-leaf
}

TEST_F(FabricFixture, EverySenderReachesEveryoneElse) {
  util::Rng rng{4711};
  const auto hosts = test::random_hosts(topology, 12, rng);
  const auto id = make_group(hosts);
  for (const auto sender : hosts) {
    const auto result =
        fabric.send(sender, controller.group(id).address, 64);
    for (const auto receiver : hosts) {
      if (receiver == sender) continue;
      EXPECT_EQ(result.host_copies.at(receiver), 1u)
          << "sender " << sender << " -> " << receiver;
    }
  }
}

TEST_F(FabricFixture, NonMemberCannotSend) {
  const auto id = make_group({0, 1});
  const auto result = fabric.send(60, controller.group(id).address, 64);
  EXPECT_TRUE(result.host_copies.empty());
  EXPECT_EQ(result.total_link_transmissions, 0u);
}

TEST_F(FabricFixture, HeaderBytesShrinkAlongThePath) {
  const auto id = make_group({0, 17});
  fabric.send(0, controller.group(id).address, 100);
  const auto& links = fabric.links();

  const NodeRef host0{topo::Layer::kHost, 0};
  const NodeRef leaf0{topo::Layer::kLeaf, 0};
  const auto first_hop = links.at({host0, leaf0}).bytes;

  // Find the final leaf->host delivery in pod 1.
  const NodeRef leaf4{topo::Layer::kLeaf, 4};
  const NodeRef host17{topo::Layer::kHost, 17};
  const auto last_hop = links.at({leaf4, host17}).bytes;

  EXPECT_GT(first_hop, last_hop);  // p-rules popped on the way
  EXPECT_EQ(last_hop, net::kOuterHeaderBytes + 100);
}

TEST_F(FabricFixture, SRuleGroupsStillDeliver) {
  // Tight header budget so most leaves use s-rules.
  elmo::EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  elmo::Controller tight_controller{topology, cfg};
  Fabric tight_fabric{topology};

  util::Rng rng{99};
  const auto hosts = test::random_hosts(topology, 20, rng);
  std::vector<elmo::Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(elmo::Member{hosts[i], static_cast<std::uint32_t>(i),
                                   elmo::MemberRole::kBoth});
  }
  const auto id = tight_controller.create_group(0, members);
  ASSERT_GT(tight_controller.group(id).encoding.s_rule_count(), 0u);
  stream::ControlPlane{tight_controller, tight_fabric}.sync(std::array{id});

  const auto result =
      tight_fabric.send(hosts[0], tight_controller.group(id).address, 64);
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    EXPECT_TRUE(result.host_copies.contains(hosts[i]));
  }
}

TEST_F(FabricFixture, UninstallStopsDelivery) {
  const auto id = make_group({0, 17});
  const auto address = controller.group(id).address;
  controller.remove_group(id);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});
  const auto result = fabric.send(0, address, 64);
  EXPECT_TRUE(result.host_copies.empty());
}

TEST_F(FabricFixture, UnicastPathsMatchLocality) {
  // Same rack: 2 hops.
  auto r = fabric.send_unicast(0, 1, 100);
  EXPECT_EQ(r.total_link_transmissions, 2u);
  // Same pod: 4 hops.
  r = fabric.send_unicast(0, 4, 100);
  EXPECT_EQ(r.total_link_transmissions, 4u);
  // Cross pod: 6 hops.
  r = fabric.send_unicast(0, 17, 100);
  EXPECT_EQ(r.total_link_transmissions, 6u);
  EXPECT_EQ(r.total_wire_bytes, 6u * (net::kOuterHeaderBytes + 100));
  // Self: nothing.
  r = fabric.send_unicast(3, 3, 100);
  EXPECT_EQ(r.total_link_transmissions, 0u);
}

TEST_F(FabricFixture, VmDeliveriesFollowLocalMembership) {
  // Two member VMs of the same group cannot share a host (one per tenant
  // host), but receive-only membership is still exercised.
  std::vector<elmo::Member> members{
      elmo::Member{0, 0, elmo::MemberRole::kSender},
      elmo::Member{5, 1, elmo::MemberRole::kReceiver},
  };
  const auto id = controller.create_group(1, members);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});
  const auto result = fabric.send(0, controller.group(id).address, 64);
  EXPECT_EQ(result.vm_deliveries, 1u);
}

// Bitmaps wider than one 64-bit word: 96 hosts per leaf. The header scan
// must step over them (it used to read each as one >64-bit field and
// throw), and every member must still get exactly one copy.
// The walk's section cache never carries one send's p-rule match into
// another: two groups with same-shaped headers, sent back to back from one
// host, each reach exactly their own members.
TEST_F(FabricFixture, SameShapeHeadersKeepTheirOwnMatches) {
  const auto a = controller.group(make_group({0, 17, 33})).address;
  const auto b = controller.group(make_group({0, 18, 34})).address;
  ASSERT_EQ(fabric.hypervisor(0).flow(a)->elmo_header.size(),
            fabric.hypervisor(0).flow(b)->elmo_header.size());
  for (int round = 0; round < 2; ++round) {
    const auto ra = fabric.send(0, a, 64);
    const auto rb = fabric.send(0, b, 64);
    EXPECT_EQ(ra.host_copies.size(), 2u);
    EXPECT_EQ(ra.host_copies.at(17), 1u);
    EXPECT_EQ(ra.host_copies.at(33), 1u);
    EXPECT_EQ(rb.host_copies.size(), 2u);
    EXPECT_EQ(rb.host_copies.at(18), 1u);
    EXPECT_EQ(rb.host_copies.at(34), 1u);
  }
}

// A sender whose header template lost its END byte: the send throws what
// the codec throws on those bytes, and the next send delivers correctly.
TEST_F(FabricFixture, TruncatedHeaderThrowsAndTheNextSendDelivers) {
  const auto group = controller.group(make_group({0, 17, 33})).address;
  auto& hv = fabric.hypervisor(0);
  const auto good = *hv.flow(group);
  auto cut = good;
  cut.elmo_header.pop_back();
  EXPECT_THROW(elmo::HeaderCodec{topology}.header_length(cut.elmo_header),
               std::out_of_range);
  hv.install_flow(group, cut);
  EXPECT_THROW(fabric.send(0, group, 0), std::out_of_range);

  hv.install_flow(group, good);
  const auto result = fabric.send(0, group, 64);
  EXPECT_EQ(result.host_copies.size(), 2u);
  EXPECT_EQ(result.host_copies.at(17), 1u);
  EXPECT_EQ(result.host_copies.at(33), 1u);
  EXPECT_EQ(result.vm_deliveries, 2u);
}

// A walk that throws closes its trace spans on the way out: the send span
// and the hop span the malformed header threw in are exported closed.
TEST_F(FabricFixture, ThrowingWalkClosesItsSpans) {
  const auto group = controller.group(make_group({0, 17, 33})).address;
  auto& hv = fabric.hypervisor(0);
  auto cut = *hv.flow(group);
  cut.elmo_header.pop_back();
  hv.install_flow(group, cut);
  obs::Tracer tracer;
  fabric.set_recorder(&tracer);
  EXPECT_THROW(fabric.send(0, group, 0), std::out_of_range);

  const auto stats = tracer.stats();
  EXPECT_GE(stats.spans, 2u);  // the send and at least the throwing hop
  EXPECT_EQ(stats.open_spans, 0u);
  EXPECT_EQ(tracer.chrome_trace_json().find("\"open\": 1"),
            std::string::npos);
}

// A hop tracer sees one "send" span per send and one child span per work
// item, named by the node's layer, each inside its send; all close.
TEST_F(FabricFixture, HopTracerRecordsTheSendAndEveryHop) {
  const auto group = controller.group(make_group({0, 1, 17, 33})).address;
  obs::Tracer tracer;
  fabric.set_recorder(&tracer);
  fabric.reset_walk_stats();
  (void)fabric.send(0, group, 64);

  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1 + fabric.walk_stats().work_items);
  const auto& send = records.front();
  EXPECT_STREQ(send.name, "send");
  EXPECT_EQ(send.lane, obs::TraceLane::kData);
  EXPECT_EQ(send.parent_span, 0u);
  ASSERT_EQ(send.nattrs, 3);
  EXPECT_STREQ(send.attrs[0].key, "group");
  EXPECT_EQ(send.attrs[0].value, static_cast<double>(group.value));
  EXPECT_STREQ(send.attrs[1].key, "src_host");
  EXPECT_EQ(send.attrs[1].value, 0.0);
  const std::set<std::string> layers{"host", "leaf", "spine", "core"};
  std::set<std::string> seen;
  for (std::size_t i = 1; i < records.size(); ++i) {
    const auto& hop = records[i];
    SCOPED_TRACE(hop.name);
    EXPECT_EQ(hop.kind, obs::SpanRecord::Kind::kSpan);
    EXPECT_TRUE(layers.contains(hop.name));
    seen.insert(hop.name);
    EXPECT_EQ(hop.trace_id, send.trace_id);
    EXPECT_EQ(hop.parent_span, send.span_id);
    EXPECT_GE(hop.ts_us, send.ts_us);
    // ts + dur rounds; allow far less than one clock tick of slack.
    EXPECT_LE(hop.ts_us + hop.dur_us, send.ts_us + send.dur_us + 1e-6);
    ASSERT_EQ(hop.nattrs, obs::kMaxTraceAttrs);
    EXPECT_STREQ(hop.attrs[0].key, "node");
    EXPECT_STREQ(hop.attrs[1].key, "hop");
    EXPECT_STREQ(hop.attrs[2].key, "fanout");
    EXPECT_STREQ(hop.attrs[3].key, "queue_depth");
  }
  EXPECT_EQ(seen, layers);  // hosts 0 -> 17/33 cross the core
  const auto stats = tracer.stats();
  EXPECT_EQ(stats.open_spans, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_NE(tracer.chrome_trace_json().find("\"dropped\": 0"),
            std::string::npos);
}

TEST_F(FabricFixture, HopTracerBoundCountsDrops) {
  const auto group = controller.group(make_group({0, 1, 17, 33})).address;
  obs::Tracer tracer{8};
  fabric.set_recorder(&tracer);
  // Each send records a send span plus several hop spans; a handful of
  // sends overflows an 8-record buffer for sure.
  for (int i = 0; i < 8; ++i) (void)fabric.send(0, group, 64);
  EXPECT_EQ(tracer.snapshot().size(), 8u);
  const auto dropped = tracer.stats().dropped;
  EXPECT_GT(dropped, 0u);

  // The stats metadata event reports the same accounting, so consumers can
  // tell a complete trace from a truncated one.
  const auto json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"max_events\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": " + std::to_string(dropped)),
            std::string::npos);
}

TEST_F(FabricFixture, HopTracerClearResetsBufferAndDropCounter) {
  const auto group = controller.group(make_group({0, 1})).address;
  obs::Tracer tracer{2};
  fabric.set_recorder(&tracer);
  (void)fabric.send(0, group, 64);
  ASSERT_GT(tracer.stats().dropped, 0u);
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.stats().dropped, 0u);
}

// Detaching the hop tracer stops recording, and the time-to-effect tracer
// alone records no hops.
TEST_F(FabricFixture, DetachedFabricRecordsNothing) {
  const auto group = controller.group(make_group({0, 17})).address;
  obs::Tracer tracer;
  fabric.set_recorder(&tracer);
  fabric.set_recorder(nullptr);
  fabric.set_tracer(&tracer);
  (void)fabric.send(0, group, 64);
  EXPECT_EQ(fabric.recorder(), nullptr);
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.stats().spans, 0u);
}

// SendResult::host_copies reads like the std::map it replaced, fed the
// same host sequence (a host reached twice counts 2).
TEST_F(FabricFixture, AccessorsThrowPastTheirOwnLayer) {
  // Leaves, spines and cores share one vector: an id one past a layer's
  // last switch must not hand out the next layer's first switch.
  EXPECT_THROW(fabric.leaf(topology.num_leaves()), std::out_of_range);
  EXPECT_THROW(fabric.spine(topology.num_spines()), std::out_of_range);
  EXPECT_THROW(fabric.core(topology.num_cores()), std::out_of_range);
  EXPECT_THROW(fabric.hypervisor(topology.num_hosts()), std::out_of_range);
  const Fabric& view = fabric;
  EXPECT_THROW(view.leaf(topology.num_leaves()), std::out_of_range);
  EXPECT_THROW(view.spine(topology.num_spines()), std::out_of_range);
  EXPECT_THROW(view.core(topology.num_cores()), std::out_of_range);
  EXPECT_THROW(view.hypervisor(topology.num_hosts()), std::out_of_range);
  EXPECT_EQ(fabric.core(topology.num_cores() - 1).layer(), topo::Layer::kCore);
  EXPECT_EQ(fabric.spine(0).layer(), topo::Layer::kSpine);
}

TEST_F(FabricFixture, SampledLinkSeriesMatchLinksByLayerPair) {
  ASSERT_GT(topology.num_pods(), 1u);
  const auto a = make_group({0, 1, 17, 35, 50});
  const auto b = make_group({3, 20, 63});
  for (const auto sender : {0u, 17u, 50u}) {
    fabric.send(sender, controller.group(a).address, 100);
  }
  fabric.send(63, controller.group(b).address, 100);
  fabric.send_unicast(2, 60, 100);

  std::map<std::pair<topo::Layer, topo::Layer>, double> want;
  for (const auto& [link, stats] : fabric.links()) {
    want[{link.first.layer, link.second.layer}] +=
        static_cast<double>(stats.packets);
  }
  obs::TimeSeriesStore store;
  fabric.sample_into(store);
  using topo::Layer;
  const std::pair<const char*, std::pair<Layer, Layer>> series[] = {
      {"elmo_link_host_leaf_tx_total", {Layer::kHost, Layer::kLeaf}},
      {"elmo_link_leaf_host_tx_total", {Layer::kLeaf, Layer::kHost}},
      {"elmo_link_leaf_spine_tx_total", {Layer::kLeaf, Layer::kSpine}},
      {"elmo_link_spine_leaf_tx_total", {Layer::kSpine, Layer::kLeaf}},
      {"elmo_link_spine_core_tx_total", {Layer::kSpine, Layer::kCore}},
      {"elmo_link_core_spine_tx_total", {Layer::kCore, Layer::kSpine}},
  };
  for (const auto& [name, pair] : series) {
    const auto* sample = store.last(name);
    ASSERT_NE(sample, nullptr) << name;
    EXPECT_EQ(sample->value, want[pair]) << name;
    EXPECT_GT(sample->value, 0.0) << name;  // every pair carried traffic
  }
}

TEST_F(FabricFixture, SetLinkLossRejectsMissingAndNonAdjacentLinks) {
  const NodeRef leaf0{topo::Layer::kLeaf, 0};
  // An out-of-range id, on either end.
  EXPECT_THROW(
      fabric.set_link_loss(NodeRef{topo::Layer::kLeaf, 100000000},
                           NodeRef{topo::Layer::kSpine, 0}, 1.0),
      std::invalid_argument);
  const auto no_spine = static_cast<topo::SpineId>(topology.num_spines());
  EXPECT_THROW(
      fabric.set_link_loss(leaf0, NodeRef{topo::Layer::kSpine, no_spine}, 1.0),
      std::invalid_argument);
  // Spine 2 is in pod 1; leaf 0 is in pod 0.
  ASSERT_NE(topology.pod_of_spine(2), topology.pod_of_leaf(0));
  EXPECT_THROW(
      fabric.set_link_loss(leaf0, NodeRef{topo::Layer::kSpine, 2}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(
      fabric.set_link_loss(NodeRef{topo::Layer::kSpine, 2}, leaf0, 1.0),
      std::invalid_argument);
  // Layers that are not one apart, and a host that is not on the leaf.
  EXPECT_THROW(
      fabric.set_link_loss(leaf0, NodeRef{topo::Layer::kCore, 0}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(
      fabric.set_link_loss(leaf0, NodeRef{topo::Layer::kHost, 5}, 1.0),
      std::invalid_argument);

  // The rejected calls black-holed nothing.
  const auto id = make_group({0, 1, 2, 17});
  const auto group = controller.group(id).address;
  EXPECT_EQ(fabric.send(0, group, 64).host_copies.size(), 3u);
  EXPECT_EQ(fabric.walk_stats().lost_copies, 0u);

  // An adjacent pair still drops its copies.
  fabric.set_link_loss(leaf0, NodeRef{topo::Layer::kHost, 1}, 1.0);
  const auto result = fabric.send(0, group, 64);
  EXPECT_EQ(result.host_copies.size(), 2u);
  EXPECT_FALSE(result.host_copies.contains(1));
  EXPECT_TRUE(result.host_copies.contains(2));
  EXPECT_TRUE(result.host_copies.contains(17));
  EXPECT_EQ(fabric.walk_stats().lost_copies, 1u);
}

TEST(HostCopies, ReadsLikeAMapOfTheSameHosts) {
  std::vector<topo::HostId> hosts{9, 3, 7, 3, 12, 0, 9, 3};
  std::map<topo::HostId, std::size_t> want;
  for (const auto h : hosts) ++want[h];
  HostCopies got;
  got.assign_counts(hosts);

  ASSERT_EQ(got.size(), want.size());
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(std::vector(got.begin(), got.end()),
            (std::vector<std::pair<topo::HostId, std::size_t>>(want.begin(),
                                                               want.end())));
  EXPECT_EQ(got.at(3), 3u);
  EXPECT_EQ(got.at(9), 2u);
  for (topo::HostId h = 0; h < 14; ++h) {
    SCOPED_TRACE("host " + std::to_string(h));
    EXPECT_EQ(got.contains(h), want.contains(h));
    const auto it = got.find(h);
    ASSERT_EQ(it == got.end(), !want.contains(h));
    if (it != got.end()) {
      EXPECT_EQ(it->first, h);
      EXPECT_EQ(it->second, want.at(h));
      EXPECT_EQ(got.at(h), want.at(h));
    } else {
      EXPECT_THROW((void)got.at(h), std::out_of_range);
    }
  }

  // operator[] inserts in order, as std::map's does.
  HostCopies built;
  for (const auto h : hosts) ++built[h];
  EXPECT_EQ(built, got);
  EXPECT_EQ(built[5], 0u);
  want[5];
  EXPECT_NE(built, got);
  EXPECT_EQ(std::vector(built.begin(), built.end()),
            (std::vector<std::pair<topo::HostId, std::size_t>>(want.begin(),
                                                               want.end())));
  EXPECT_TRUE(HostCopies{}.empty());
}

TEST(FabricWideLeaf, BitmapsOver64PortsScanAndDeliver) {
  const topo::ClosTopology topology{topo::ClosParams{.pods = 2,
                                                     .leaves_per_pod = 2,
                                                     .spines_per_pod = 2,
                                                     .cores_per_plane = 2,
                                                     .hosts_per_leaf = 96}};
  ASSERT_GT(topology.leaf_down_ports(), 64u);
  elmo::Controller controller{topology, elmo::EncoderConfig{}};
  Fabric fabric{topology};
  // Members on every leaf, on both sides of the 64-port word boundary.
  const std::vector<topo::HostId> hosts{0,   5,   63,  64,  95,  96,  160,
                                        191, 200, 287, 300, 350, 383};
  std::vector<elmo::Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(elmo::Member{hosts[i], static_cast<std::uint32_t>(i),
                                   elmo::MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});

  const elmo::HeaderCodec codec{topology};
  for (const auto sender : hosts) {
    const auto header = controller.header_for(id, sender);
    EXPECT_EQ(codec.header_length(header), header.size())
        << "sender " << sender;
    const auto result = fabric.send(sender, controller.group(id).address, 64);
    EXPECT_EQ(result.host_copies.size(), hosts.size() - 1)
        << "sender " << sender;
    for (const auto receiver : hosts) {
      if (receiver == sender) continue;
      const auto it = result.host_copies.find(receiver);
      ASSERT_NE(it, result.host_copies.end())
          << "sender " << sender << " -> " << receiver;
      EXPECT_EQ(it->second, 1u) << "sender " << sender << " -> " << receiver;
    }
  }
}

}  // namespace
}  // namespace elmo::sim
