#include "p4rt/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  direct.install_group(controller, id);

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

  // A second fabric installed directly must behave identically.
  sim::Fabric direct{topology};
  direct.install_group(controller, id);

  for (const auto& m : g.members) {
    fabric.reset_link_stats();
    direct.reset_link_stats();
    const auto via_channel = fabric.send(m.host, g.address, 256);
    const auto via_direct = direct.send(m.host, g.address, 256);
    EXPECT_EQ(via_channel.total_wire_bytes, via_direct.total_wire_bytes);
    EXPECT_EQ(via_channel.host_copies, via_direct.host_copies);
    EXPECT_EQ(via_channel.vm_deliveries, via_direct.vm_deliveries);
  }
}

TEST_F(P4rtFixture, UninstallRemovesEverything) {
  const auto id = make_group(12, 11);
  const auto& g = controller.group(id);
  send_over_wire(compile_install(controller, id));
  send_over_wire(compile_uninstall(controller, id));

  const auto result = fabric.send(g.members[0].host, g.address, 64);
  EXPECT_TRUE(result.host_copies.empty());
  for (topo::LeafId l = 0; l < topology.num_leaves(); ++l) {
    EXPECT_EQ(fabric.leaf(l).srule_count(), 0u);
  }
}

TEST_F(P4rtFixture, UninstallDeletesCarryOnlyTheRuleLocation) {
  const auto id = make_group(16, 15, /*tenant=*/7);  // FLOW_ADDs carry vni 7
  const auto installs = compile_install(controller, id);
  const auto deletes = compile_uninstall(controller, id);
  ASSERT_EQ(deletes.size(), installs.size());
  for (std::size_t i = 0; i < deletes.size(); ++i) {
    Update expected;  // the matching add's location, nothing else
    expected.group = installs[i].group;
    if (installs[i].kind == UpdateKind::kHypervisorFlowAdd) {
      expected.kind = UpdateKind::kHypervisorFlowDel;
      expected.host = installs[i].host;
    } else {
      expected.kind = UpdateKind::kSRuleDel;
      expected.layer = installs[i].layer;
      expected.switch_id = installs[i].switch_id;
    }
    EXPECT_EQ(deletes[i], expected) << "update " << i;
  }
  EXPECT_EQ(decode(encode(deletes)), deletes);  // the wire drops nothing
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
  EXPECT_EQ(compile(controller, id, /*install=*/true, &named), expected);

  EXPECT_EQ(compile(controller, id, /*install=*/true, nullptr), all);
  const RuleSlots none;
  EXPECT_TRUE(compile(controller, id, /*install=*/true, &none).empty());
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
      fabric.install_group(controller, ids.back());
      plane.track_group(ids.back());
    }

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

}  // namespace
}  // namespace elmo::p4rt
