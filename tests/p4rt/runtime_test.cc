#include "p4rt/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "elmo/stream.h"
#include "sim/fabric.h"
#include "testutil.h"
#include "util/rng.h"

namespace elmo::p4rt {
namespace {

struct P4rtFixture : ::testing::Test {
  P4rtFixture()
      : topology{topo::ClosParams::small_test()},
        controller{topology, make_config()},
        fabric{topology} {}

  static EncoderConfig make_config() {
    EncoderConfig cfg;
    cfg.hmax_leaf_override = 2;  // force s-rules so every kind appears
    return cfg;
  }

  elmo::GroupId make_group(std::size_t size, std::uint64_t seed,
                           std::uint32_t tenant = 0) {
    util::Rng rng{seed};
    const auto hosts = test::random_hosts(topology, size, rng);
    std::vector<Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                               MemberRole::kBoth});
    }
    return controller.create_group(tenant, members);
  }

  // Pushes `updates` through the wire codec into `fabric`, returning the
  // number of wire bytes that crossed the channel.
  std::size_t send_over_wire(std::span<const Update> updates) {
    const auto wire = encode(updates);
    for (auto& u : decode(wire)) fabric.apply(std::move(u));
    return wire.size();
  }

  topo::ClosTopology topology;
  Controller controller;
  sim::Fabric fabric;
};

TEST_F(P4rtFixture, CompileCoversEveryRule) {
  const auto id = make_group(16, 5);
  const auto& g = controller.group(id);
  const auto updates = compile_install(controller, id);

  // Flows are merged per host, so the update count tracks distinct member
  // hosts, not members.
  std::set<topo::HostId> hosts;
  std::size_t member_vms = 0;
  for (const auto& m : g.members) {
    hosts.insert(m.host);
    if (can_receive(m.role)) ++member_vms;
  }
  std::size_t flows = 0, srules = 0, flow_vms = 0;
  for (const auto& u : updates) {
    if (u.kind == UpdateKind::kHypervisorFlowAdd) {
      ++flows;
      flow_vms += u.local_vms.size();
    }
    if (u.kind == UpdateKind::kSRuleAdd) ++srules;
  }
  EXPECT_EQ(flows, hosts.size());
  EXPECT_EQ(flow_vms, member_vms);
  EXPECT_EQ(srules, g.encoding.leaf.s_rules.size() +
                        g.encoding.spine.s_rules.size() *
                            topology.params().spines_per_pod);
}

TEST_F(P4rtFixture, ColocatedMembersShareOneFlowUpdate) {
  // Two members of the same group on the same host must not clobber each
  // other when the batch is applied through the channel.
  const auto host = topology.host_at(0, 0);
  const auto remote = topology.host_at(1, 0);
  std::vector<Member> members{Member{host, 1, MemberRole::kBoth},
                              Member{host, 2, MemberRole::kBoth},
                              Member{remote, 3, MemberRole::kBoth}};
  const auto id = controller.create_group(0, members);

  const auto updates = compile_install(controller, id);
  std::size_t flow_adds = 0;
  for (const auto& u : updates) {
    if (u.kind == UpdateKind::kHypervisorFlowAdd) ++flow_adds;
  }
  EXPECT_EQ(flow_adds, 2u);  // one per distinct host, not one per member

  send_over_wire(updates);
  sim::Fabric direct{topology};
  for (const auto& u : updates) direct.apply(u);

  // A packet from the remote host must reach BOTH co-located VMs; with
  // per-member updates the second FLOW_ADD used to clobber the first.
  const auto& g = controller.group(id);
  const auto via_channel = fabric.send(remote, g.address, 128);
  const auto via_direct = direct.send(remote, g.address, 128);
  EXPECT_EQ(via_channel.vm_deliveries, via_direct.vm_deliveries);
  EXPECT_EQ(via_channel.host_copies, via_direct.host_copies);
  EXPECT_EQ(via_channel.vm_deliveries, 2u);
}

TEST_F(P4rtFixture, WireRoundTripIsExact) {
  const auto id = make_group(16, 7);
  const auto updates = compile_install(controller, id);
  const auto wire = encode(updates);
  const auto decoded = decode(wire);
  ASSERT_EQ(decoded.size(), updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(decoded[i], updates[i]) << "update " << i;
  }
}

TEST_F(P4rtFixture, ChannelInstallEqualsDirectInstall) {
  const auto id = make_group(14, 9);
  const auto& g = controller.group(id);

  // Install exclusively through the wire protocol.
  const auto wire_bytes = send_over_wire(compile_install(controller, id));
  EXPECT_GT(wire_bytes, 0u);

  // A second fabric the same rules are applied to directly must behave
  // identically.
  sim::Fabric direct{topology};
  for (auto& u : compile_install(controller, id)) direct.apply(std::move(u));

  for (const auto& m : g.members) {
    const auto via_channel = fabric.send(m.host, g.address, 256);
    const auto via_direct = direct.send(m.host, g.address, 256);
    EXPECT_EQ(via_channel.total_wire_bytes, via_direct.total_wire_bytes);
    EXPECT_EQ(via_channel.host_copies, via_direct.host_copies);
    EXPECT_EQ(via_channel.vm_deliveries, via_direct.vm_deliveries);
  }
}

// An uninstall is Controller::remove_group and a sync of the removed id.
TEST_F(P4rtFixture, UninstallRemovesEverything) {
  const auto id = make_group(12, 11);
  const auto sender = controller.group(id).members[0].host;
  const auto address = controller.group(id).address;
  send_over_wire(compile_install(controller, id));
  controller.remove_group(id);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});

  const auto result = fabric.send(sender, address, 64);
  EXPECT_TRUE(result.host_copies.empty());
  for (topo::LeafId l = 0; l < topology.num_leaves(); ++l) {
    EXPECT_EQ(fabric.leaf(l).srule_count(), 0u);
  }
  for (topo::SpineId s = 0; s < topology.num_spines(); ++s) {
    EXPECT_EQ(fabric.spine(s).srule_count(), 0u);
  }
  EXPECT_EQ(stream::fabric_state_digest(fabric), 0u);
}

// The uninstall's wire carries one delete per installed rule, each with only
// the rule's location: exactly the bytes of those deletes, in one batch.
TEST_F(P4rtFixture, UninstallDeletesCarryOnlyTheRuleLocation) {
  const auto id = make_group(16, 15, /*tenant=*/7);  // FLOW_ADDs carry vni 7
  const auto installs = compile_install(controller, id);
  send_over_wire(installs);
  std::vector<Update> deletes;
  std::size_t flows = 0;
  for (const auto& add : installs) {
    Update& expected = deletes.emplace_back();  // the add's location only
    expected.group = add.group;
    if (add.kind == UpdateKind::kHypervisorFlowAdd) {
      expected.kind = UpdateKind::kHypervisorFlowDel;
      expected.host = add.host;
      ++flows;
    } else {
      expected.kind = UpdateKind::kSRuleDel;
      expected.layer = add.layer;
      expected.switch_id = add.switch_id;
    }
  }
  EXPECT_EQ(decode(encode(deletes)), deletes);  // the wire drops nothing

  controller.remove_group(id);
  stream::ControlPlane plane{controller, fabric,
                             stream::ControlPlaneOptions{installs.size()}};
  EXPECT_EQ(plane.sync(std::array{id}), installs.size());
  const auto& st = plane.stats();
  EXPECT_EQ(st.batches_encoded, 1u);
  EXPECT_EQ(st.wire_bytes, encode(deletes).size());
  EXPECT_EQ(st.flow_dels, flows);
  EXPECT_EQ(st.leaf_srule_dels + st.spine_srule_dels, installs.size() - flows);
  EXPECT_EQ(st.flow_adds + st.leaf_srule_adds + st.spine_srule_adds, 0u);
}

// A compile filtered to some slots is the all-slots compile restricted to
// them, in the same order; a named slot the group does not compile (a host
// with no member, a switch without the group's s-rule) yields nothing.
TEST_F(P4rtFixture, FilteredCompileIsTheFullCompileAtTheNamedSlots) {
  const auto id = make_group(16, 17);
  const auto all = compile_install(controller, id);
  const auto& g = controller.group(id);

  RuleSlots slots;
  std::size_t flows = 0;
  for (const auto& u : all) {
    if (u.kind == UpdateKind::kHypervisorFlowAdd) {
      if (flows++ % 2 == 0) slots.hosts.push_back(u.host);
    } else {
      slots.srules.emplace_back(u.layer, u.switch_id);
    }
  }
  ASSERT_LT(slots.hosts.size(), flows);
  ASSERT_FALSE(slots.srules.empty());
  slots.srules.pop_back();  // drop one s-rule slot too
  topo::HostId stranger = 0;
  while (std::any_of(g.members.begin(), g.members.end(),
                     [&](const Member& m) { return m.host == stranger; })) {
    ++stranger;
  }
  RuleSlots named = slots;
  named.merge(RuleSlots{{stranger}, {}});  // also sorts, as filters must be

  std::vector<Update> expected;
  for (const auto& u : all) {
    const bool kept =
        u.kind == UpdateKind::kHypervisorFlowAdd
            ? std::binary_search(slots.hosts.begin(), slots.hosts.end(),
                                 u.host)
            : std::find(slots.srules.begin(), slots.srules.end(),
                        std::pair{u.layer, u.switch_id}) != slots.srules.end();
    if (kept) expected.push_back(u);
  }
  EXPECT_EQ(compile(controller, id, &named), expected);

  EXPECT_EQ(compile(controller, id, nullptr), all);
  const RuleSlots none;
  EXPECT_TRUE(compile(controller, id, &none).empty());
}

TEST_F(P4rtFixture, DecodeRejectsMalformedStreams) {
  const auto id = make_group(8, 13);
  auto wire = encode(compile_install(controller, id));

  {
    auto bad = wire;
    bad[0] ^= 0xff;
    EXPECT_THROW(decode(bad), std::invalid_argument);
  }
  {
    auto bad = wire;
    bad.resize(bad.size() - 3);
    EXPECT_THROW(decode(bad), std::invalid_argument);
  }
  {
    auto bad = wire;
    bad.push_back(0x00);
    EXPECT_THROW(decode(bad), std::invalid_argument);
  }
  {
    auto bad = wire;
    bad[8] = 99;  // first message kind
    EXPECT_THROW(decode(bad), std::invalid_argument);
  }
}

// compile_install serializes a group's shared header tail once and splices
// it behind each sender's upstream sections; Controller::header_for builds
// the header on its own. The two must agree after churn and after a failure
// (explicit upstream ports), and the fabric must hold the same bytes.
TEST(P4rtCompile, FlowHeadersEqualHeaderForAcrossChurnAndFailure) {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  for (const auto kind : kAllEncoderKinds) {
    SCOPED_TRACE(to_string(kind));
    EncoderConfig cfg;
    cfg.encoder = kind;
    cfg.hmax_leaf_override = 2;
    Controller controller{topology, cfg};
    sim::Fabric fabric{topology};
    stream::ControlPlane plane{controller, fabric};

    util::Rng rng{31};
    std::vector<elmo::GroupId> ids;
    for (const std::size_t size : {3, 10, 24}) {
      const auto hosts = test::random_hosts(topology, size, rng);
      std::vector<Member> members;
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        const auto role = i % 3 == 2 ? MemberRole::kReceiver
                                     : MemberRole::kBoth;
        members.push_back(
            Member{hosts[i], static_cast<std::uint32_t>(i), role});
      }
      ids.push_back(controller.create_group(0, members));
    }
    plane.sync(ids);

    auto check = [&](const char* step) {
      SCOPED_TRACE(step);
      std::size_t headers = 0;
      for (const auto id : ids) {
        const auto address = controller.group(id).address;
        for (const auto& u : compile_install(controller, id)) {
          if (u.kind != UpdateKind::kHypervisorFlowAdd) continue;
          const auto* installed = fabric.hypervisor(u.host).flow(address);
          ASSERT_NE(installed, nullptr);
          EXPECT_EQ(installed->elmo_header, u.elmo_header);
          if (u.elmo_header.empty()) continue;  // receive-only host
          EXPECT_EQ(u.elmo_header, controller.header_for(id, u.host));
          ++headers;
        }
      }
      EXPECT_GT(headers, 0u);
    };

    check("install");
    plane.join(ids[0],
               Member{static_cast<topo::HostId>(topology.num_hosts() - 1),
                      100, MemberRole::kBoth});
    plane.flush();
    check("join");
    const auto leaving = controller.group(ids[1]).members.front();
    plane.leave(ids[1], leaving.host, leaving.vm);
    plane.flush();
    check("leave");
    for (std::uint32_t plane_index = 0;
         plane_index < topology.params().spines_per_pod; ++plane_index) {
      const auto spine = topology.spine_at(0, plane_index);
      plane.fail_spine(spine);
      plane.flush();
      check("fail_spine");
      plane.restore_spine(spine);
      plane.flush();
      check("restore_spine");
    }
  }
}

TEST(P4rtCodec, EmptyBatch) {
  const auto wire = encode({});
  EXPECT_EQ(wire.size(), 8u);  // magic + count
  EXPECT_TRUE(decode(wire).empty());
}

TEST(P4rtCodec, OversizedFlowAddRoundTripsViaExtendedFrame) {
  // A flow whose body exceeds the u16 frame (≈16K local VMs) used to throw
  // std::length_error; it must now cross the channel via an extended frame.
  Update u;
  u.kind = UpdateKind::kHypervisorFlowAdd;
  u.host = 42;
  u.group.value = 0xe1000001;
  u.vni = 7;
  u.local_vms.resize(20'000);
  for (std::size_t i = 0; i < u.local_vms.size(); ++i) {
    u.local_vms[i] = static_cast<std::uint32_t>(i);
  }
  u.elmo_header.assign(123, 0xab);

  std::vector<Update> updates{u};
  const auto wire = encode(updates);
  // Body alone is > 65,535 bytes: 12 fixed + 4 + 4*20000 + 4 + 123.
  EXPECT_GT(wire.size(), 65'535u);
  EXPECT_EQ(wire[8] & kExtendedFrameBit, kExtendedFrameBit);

  const auto decoded = decode(wire);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], u);
}

TEST(P4rtCodec, OversizedSRuleRoundTripsViaExtendedFrame) {
  Update u;
  u.kind = UpdateKind::kSRuleAdd;
  u.layer = topo::Layer::kLeaf;
  u.switch_id = 3;
  u.group.value = 0xe1000002;
  u.ports = net::PortBitmap{70'000};
  u.ports.set(0);
  u.ports.set(65'536);
  u.ports.set(69'999);

  std::vector<Update> updates{u};
  const auto decoded = decode(encode(updates));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], u);
}

TEST(P4rtCodec, StandardFramesAreByteIdenticalToLegacyWire) {
  // Small messages must keep the v1 layout so old decoders stay compatible:
  // kind byte without the extension bit, u16 length, u16 counts.
  Update u;
  u.kind = UpdateKind::kHypervisorFlowAdd;
  u.host = 1;
  u.group.value = 0xe0000009;
  u.vni = 2;
  u.local_vms = {10, 11};
  u.elmo_header = {0xde, 0xad};

  std::vector<Update> updates{u};
  const auto wire = encode(updates);
  ASSERT_GT(wire.size(), 11u);
  EXPECT_EQ(wire[8], 0x01);  // kind, high bit clear
  const std::size_t body = 12 + 2 + 4 * 2 + 2 + 2;
  EXPECT_EQ(wire.size(), 8 + 3 + body);
  EXPECT_EQ((wire[9] << 8) | wire[10], static_cast<int>(body));
}

TEST(P4rtCodec, DecodeRejectsImplausibleBatchCount) {
  // A batch advertising far more messages than the payload could hold must
  // be rejected before any storage is reserved for it.
  std::vector<std::uint8_t> wire = encode({});
  wire[4] = 0xff;  // count := 0xff000000
  EXPECT_THROW(decode(wire), std::invalid_argument);
}

TEST(P4rtCodec, DecodeRejectsOversizedEmbeddedCounts) {
  Update u;
  u.kind = UpdateKind::kSRuleAdd;
  u.layer = topo::Layer::kLeaf;
  u.switch_id = 1;
  u.group.value = 0xe0000001;
  u.ports = net::PortBitmap{8};
  std::vector<Update> updates{u};
  auto wire = encode(updates);
  // Corrupt the port_count field (last 3 bytes are count(u16) + 1 bitmap
  // byte) to advertise a bitmap far larger than the remaining payload.
  wire[wire.size() - 3] = 0xff;
  wire[wire.size() - 2] = 0xff;
  EXPECT_THROW(decode(wire), std::invalid_argument);
}

TEST(P4rtCodec, DecodeFuzzNeverCrashesAndRoundTripsSurvivors) {
  // Mutational fuzz over valid wires: truncations, bit flips, and random
  // splices must either decode cleanly or throw std::invalid_argument —
  // never crash, hang, or allocate absurdly. Survivors must re-encode.
  util::Rng rng{0xf00dULL};
  std::vector<Update> base;
  for (int i = 0; i < 6; ++i) {
    Update u;
    switch (i % 4) {
      case 0:
        u.kind = UpdateKind::kHypervisorFlowAdd;
        u.host = rng.index(1000);
        u.vni = rng.index(1 << 20);
        u.local_vms.resize(rng.index(8));
        u.elmo_header.resize(rng.index(64));
        break;
      case 1:
        u.kind = UpdateKind::kHypervisorFlowDel;
        u.host = rng.index(1000);
        break;
      case 2:
        u.kind = UpdateKind::kSRuleAdd;
        u.layer = topo::Layer::kSpine;
        u.switch_id = rng.index(512);
        u.ports = net::PortBitmap{1 + rng.index(128)};
        break;
      case 3:
        u.kind = UpdateKind::kSRuleDel;
        u.layer = topo::Layer::kLeaf;
        u.switch_id = rng.index(512);
        break;
    }
    u.group.value = 0xe0000000u | static_cast<std::uint32_t>(rng.index(1 << 24));
    base.push_back(std::move(u));
  }
  const auto wire = encode(base);
  ASSERT_EQ(decode(wire), base);

  for (int trial = 0; trial < 2000; ++trial) {
    auto fuzzed = wire;
    switch (rng.index(3)) {
      case 0:  // truncate
        fuzzed.resize(rng.index(fuzzed.size() + 1));
        break;
      case 1:  // flip a byte
        fuzzed[rng.index(fuzzed.size())] ^= static_cast<std::uint8_t>(
            1 + rng.index(255));
        break;
      case 2: {  // splice a random chunk
        const auto at = rng.index(fuzzed.size());
        const auto len = rng.index(16);
        std::vector<std::uint8_t> chunk(len);
        for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.index(256));
        fuzzed.insert(fuzzed.begin() + static_cast<std::ptrdiff_t>(at),
                      chunk.begin(), chunk.end());
        break;
      }
    }
    try {
      const auto survivors = decode(fuzzed);
      // Anything that decodes must round-trip through encode/decode.
      EXPECT_EQ(decode(encode(survivors)), survivors);
    } catch (const std::invalid_argument&) {
      // expected for malformed input
    }
  }
}

// The route of `sender` as MulticastTree::sender_route computed it before
// RouteContext, one sender at a time from the tree: an independent
// reference for the per-pod routes the context now shares across senders.
SenderRoute reference_route(const MulticastTree& tree, topo::HostId sender,
                            const topo::FailureSet& failures) {
  const auto& t = tree.topology();
  const auto sender_leaf = t.leaf_of_host(sender);
  const auto sender_pod = t.pod_of_leaf(sender_leaf);
  SenderRoute route;
  auto& enc = route.encoding;
  enc.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  if (const auto* local = tree.find_leaf(sender_leaf)) {
    enc.u_leaf.down = local->host_ports;
    enc.u_leaf.down.set(t.host_port_on_leaf(sender), false);
  }
  enc.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  std::vector<topo::PodId> other_pods;
  for (const auto& pod : tree.pods()) {
    if (pod.pod != sender_pod) other_pods.push_back(pod.pod);
  }
  const bool beyond_leaf =
      !other_pods.empty() ||
      std::any_of(tree.leaves().begin(), tree.leaves().end(),
                  [&](const LeafTreeEntry& e) {
                    return e.leaf != sender_leaf &&
                           t.pod_of_leaf(e.leaf) == sender_pod;
                  });
  if (!beyond_leaf) return route;
  UpstreamRule u_spine;
  u_spine.down = net::PortBitmap{t.spine_down_ports()};
  if (const auto* pod = tree.find_pod(sender_pod)) {
    u_spine.down = pod->leaf_ports;
    u_spine.down.set(t.leaf_index_in_pod(sender_leaf), false);
  }
  u_spine.up = net::PortBitmap{t.spine_up_ports()};
  auto core = net::PortBitmap{t.core_ports()};
  if (failures.empty()) {
    enc.u_leaf.multipath = true;
    u_spine.multipath = !other_pods.empty();
    for (const auto pod : other_pods) core.set(pod);
  } else {
    // Greedy cover: repeatedly take the alive plane that reaches the most
    // uncovered pods (any alive one first if only same-pod leaves need it).
    const bool same_pod = u_spine.down.any();
    auto covers = [&](std::size_t plane, topo::PodId pod) {
      if (failures.spine_failed(t.spine_at(pod, plane))) return false;
      for (std::size_t c = 0; c < t.spine_up_ports(); ++c) {
        if (!failures.core_failed(t.core_at(plane, c))) return true;
      }
      return false;
    };
    std::vector<bool> covered(other_pods.size(), false);
    bool chose = false;
    while (true) {
      std::size_t best = t.leaf_up_ports();
      std::size_t best_gain = 0;
      for (std::size_t plane = 0; plane < t.leaf_up_ports(); ++plane) {
        if (failures.spine_failed(t.spine_at(sender_pod, plane))) continue;
        std::size_t gain = 0;
        for (std::size_t i = 0; i < other_pods.size(); ++i) {
          if (!covered[i] && covers(plane, other_pods[i])) ++gain;
        }
        if (!chose && same_pod && gain == 0 && best_gain == 0 &&
            best == t.leaf_up_ports()) {
          best = plane;
        }
        if (gain > best_gain) {
          best_gain = gain;
          best = plane;
        }
      }
      if (best == t.leaf_up_ports() || (best_gain == 0 && chose)) break;
      enc.u_leaf.up.set(best);
      chose = true;
      if (best_gain > 0) {
        for (std::size_t c = 0; c < t.spine_up_ports(); ++c) {
          if (!failures.core_failed(t.core_at(best, c))) {
            u_spine.up.set(c);
            break;
          }
        }
        for (std::size_t i = 0; i < other_pods.size(); ++i) {
          if (covers(best, other_pods[i])) covered[i] = true;
        }
      }
      if (std::all_of(covered.begin(), covered.end(),
                      [](bool c) { return c; }) &&
          (chose || !same_pod)) {
        break;
      }
    }
    for (std::size_t i = 0; i < other_pods.size(); ++i) {
      if (covered[i]) {
        core.set(other_pods[i]);
      } else {
        route.unreachable_pods.push_back(other_pods[i]);
      }
    }
  }
  enc.u_spine = std::move(u_spine);
  if (!other_pods.empty()) enc.core_pods = std::move(core);
  return route;
}

// compile splices each sender's header from its pod route's serialized
// upstream sections, shared by every sender of the pod in one call. Every
// flow header it emits must equal the full serializer over sender_route,
// and sender_route must equal the reference, for random groups (any host as
// a sender, members or not) with no failure, a failed spine on the group's
// plane, one off it, and a failed core of its plane.
TEST(P4rtCompile, SplicedHeadersEqualTheSerializedRoute) {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  util::Rng rng{1802};
  std::size_t flows = 0;
  for (int round = 0; round < 40; ++round) {
    Controller controller{topology, EncoderConfig{}};
    const auto& codec = controller.encoder().codec();
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const auto hosts = test::random_hosts(topology, size, rng);
    std::vector<Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const auto roll = rng.uniform_int(0, 2);
      members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                               roll == 0   ? MemberRole::kSender
                               : roll == 1 ? MemberRole::kReceiver
                                           : MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    const auto& g = controller.group(id);
    const auto plane = topology.ecmp_plane(topo::group_hash(g.address));
    const auto pod = topology.pod_of_host(hosts.front());
    const auto off_plane = (plane + 1) % topology.params().spines_per_pod;

    auto check = [&](const char* failure) {
      SCOPED_TRACE(failure);
      const auto& failures = controller.route_failures(id);
      for (const auto& u : compile_install(controller, id)) {
        if (u.kind != UpdateKind::kHypervisorFlowAdd || u.elmo_header.empty()) {
          continue;
        }
        ASSERT_EQ(u.elmo_header,
                  codec.serialize(g.tree->sender_route(u.host, failures).encoding,
                                  g.encoding));
        ++flows;
      }
      RouteContext routes{*g.tree, failures};
      const auto shared = codec.serialize_shared(g.encoding);
      for (int probe = 0; probe < 16; ++probe) {
        const auto host = static_cast<topo::HostId>(
            rng.uniform_int(0, topology.num_hosts() - 1));
        const auto route = routes.route(host);
        const auto reference = reference_route(*g.tree, host, failures);
        ASSERT_EQ(codec.serialize(route.encoding, g.encoding),
                  codec.serialize(reference.encoding, g.encoding))
            << "host " << host;
        ASSERT_EQ(route.unreachable_pods, reference.unreachable_pods);
        ASSERT_EQ(routes.header(host, codec, shared),
                  codec.serialize(reference.encoding, shared))
            << "host " << host;
      }
    };
    check("none");
    controller.fail_spine(topology.spine_at(pod, plane));
    check("spine on the group's plane");
    controller.restore_spine(topology.spine_at(pod, plane));
    controller.fail_spine(topology.spine_at(pod, off_plane));
    check("spine off the group's plane");
    controller.restore_spine(topology.spine_at(pod, off_plane));
    controller.fail_core(topology.core_at(plane, 0));
    check("core of the group's plane");
  }
  EXPECT_GT(flows, 500u);
}

}  // namespace
}  // namespace elmo::p4rt
