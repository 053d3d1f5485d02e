#include "elmo/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "elmo/churn.h"
#include "elmo/snapshot.h"
#include "util/rng.h"

namespace elmo {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

std::vector<Member> members_of(std::initializer_list<topo::HostId> hosts) {
  std::vector<Member> out;
  std::uint32_t vm = 0;
  for (const auto h : hosts) {
    out.push_back(Member{h, vm++, MemberRole::kBoth});
  }
  return out;
}

TEST(Controller, CreateAndQueryGroup) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(7, members_of({0, 5, 17}));
  EXPECT_TRUE(controller.has_group(id));
  EXPECT_EQ(controller.num_groups(), 1u);
  const auto& g = controller.group(id);
  EXPECT_EQ(g.tenant, 7u);
  EXPECT_EQ(g.members.size(), 3u);
  EXPECT_TRUE(g.address.is_multicast());
  ASSERT_NE(g.tree, nullptr);
  EXPECT_EQ(g.tree->num_members(), 3u);
}

TEST(Controller, UnknownGroupThrows) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  EXPECT_THROW(controller.group(5), std::out_of_range);
  EXPECT_FALSE(controller.has_group(5));
}

TEST(Controller, RemoveGroupReleasesSRules) {
  const auto t = small();
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;  // force s-rule usage
  Controller controller{t, cfg};
  std::vector<Member> members;
  for (std::uint32_t i = 0; i < 16; ++i) {
    members.push_back(Member{static_cast<topo::HostId>(i * 4), i,
                             MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  EXPECT_GT(controller.group(id).encoding.s_rule_count(), 0u);
  controller.remove_group(id);
  EXPECT_FALSE(controller.has_group(id));
  EXPECT_DOUBLE_EQ(controller.srule_space().leaf_stats().sum(), 0.0);
  EXPECT_DOUBLE_EQ(controller.srule_space().spine_stats().sum(), 0.0);
}

TEST(Controller, JoinExtendsTreeAndLeaveShrinksIt) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(0, members_of({0, 1}));
  EXPECT_EQ(controller.group(id).tree->num_leaves(), 1u);

  controller.join(id, Member{20, 9, MemberRole::kReceiver});
  EXPECT_EQ(controller.group(id).tree->num_members(), 3u);
  EXPECT_GT(controller.group(id).tree->num_leaves(), 1u);

  controller.leave(id, 20, 9);
  EXPECT_EQ(controller.group(id).tree->num_members(), 2u);
  EXPECT_EQ(controller.group(id).tree->num_leaves(), 1u);
}

TEST(Controller, LeaveUnknownMemberThrows) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(0, members_of({0, 1}));
  EXPECT_THROW(controller.leave(id, 42, 0), std::invalid_argument);
}

// Per-switch s-rule occupancy, leaves then spines.
std::vector<std::size_t> occupancy(Controller& controller,
                                   const topo::ClosTopology& t) {
  std::vector<std::size_t> out;
  for (topo::LeafId l = 0; l < t.num_leaves(); ++l) {
    out.push_back(controller.srule_space().leaf_occupancy(l));
  }
  for (topo::SpineId s = 0; s < t.num_spines(); ++s) {
    out.push_back(controller.srule_space().spine_occupancy(s));
  }
  return out;
}

TEST(Controller, RejectedJoinOfHostOutsideTopologyChangesNothing) {
  const auto t = small();
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;  // s-rules in play, so reservations show
  Controller controller{t, cfg};
  std::vector<Member> members;
  for (std::uint32_t i = 0; i < 16; ++i) {
    members.push_back(Member{static_cast<topo::HostId>(i * 4), i,
                             MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  const auto encoding = controller.group(id).encoding;
  ASSERT_GT(encoding.s_rule_count(), 0u);
  const auto reserved = occupancy(controller, t);

  const auto outside = static_cast<topo::HostId>(t.num_hosts());
  for (const auto role : {MemberRole::kReceiver, MemberRole::kSender}) {
    EXPECT_THROW(controller.join(id, Member{outside, 99, role}),
                 std::out_of_range);
    EXPECT_EQ(controller.group(id).members.size(), members.size());
    EXPECT_EQ(controller.group(id).encoding, encoding);
    EXPECT_EQ(occupancy(controller, t), reserved);
  }

  // The group is not wedged: a valid join and leave still go through.
  controller.join(id, Member{1, 98, MemberRole::kReceiver});
  EXPECT_EQ(controller.group(id).members.size(), members.size() + 1);
  controller.leave(id, 1, 98);
  EXPECT_EQ(controller.group(id).members.size(), members.size());
  EXPECT_EQ(controller.group(id).encoding, encoding);
}

TEST(Controller, RejectedCreateOfHostOutsideTopologyLeavesNoGroup) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto first = controller.create_group(0, members_of({0, 5}));
  const auto outside = static_cast<topo::HostId>(t.num_hosts());
  const std::vector<Member> bad{Member{3, 0, MemberRole::kBoth},
                                Member{outside, 1, MemberRole::kReceiver}};
  const auto good = members_of({1, 9});

  EXPECT_THROW(controller.create_group(0, bad), std::out_of_range);
  EXPECT_EQ(controller.num_groups(), 1u);
  EXPECT_EQ(controller.group_ids(), std::vector<GroupId>{first});

  const std::vector<Controller::GroupSpec> specs{{0, good}, {0, bad}};
  EXPECT_THROW(controller.create_groups(specs), std::out_of_range);
  EXPECT_EQ(controller.num_groups(), 1u);
  EXPECT_EQ(controller.group_ids(), std::vector<GroupId>{first});

  // Ids stay dense: the next valid group takes the next id.
  const auto next = controller.create_group(0, good);
  EXPECT_EQ(next, first + 1);
  EXPECT_EQ(controller.num_groups(), 2u);
}

// Membership is a set of (host, vm) pairs: a second join of a member, with
// its role or another, is rejected before any state changes. Accepted, it
// would list the VM twice in its host's flow and deliver every packet to it
// twice.
TEST(Controller, DuplicateJoinChangesNothing) {
  const auto t = small();
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;  // s-rules in play, so reservations show
  Controller controller{t, cfg};
  std::vector<Member> members;
  for (std::uint32_t i = 0; i < 16; ++i) {
    members.push_back(Member{static_cast<topo::HostId>(i * 4), i,
                             MemberRole::kReceiver});
  }
  const auto id = controller.create_group(0, members);
  controller.join(id, Member{5, 40, MemberRole::kBoth});
  ASSERT_GT(controller.group(id).encoding.s_rule_count(), 0u);
  const auto image = snapshot(controller);
  const auto change = controller.last_change();
  const auto reserved = occupancy(controller, t);

  for (const auto role :
       {MemberRole::kBoth, MemberRole::kSender, MemberRole::kReceiver}) {
    EXPECT_THROW(controller.join(id, Member{5, 40, role}),
                 std::invalid_argument);
    EXPECT_THROW(controller.join(id, Member{0, 0, role}),
                 std::invalid_argument);
    EXPECT_EQ(snapshot(controller), image);
    EXPECT_EQ(controller.last_change().hosts, change.hosts);
    EXPECT_EQ(controller.last_change().srules, change.srules);
    EXPECT_EQ(occupancy(controller, t), reserved);
  }

  // Another VM on the same host, or the same VM index on another host, is a
  // distinct member.
  controller.join(id, Member{5, 41, MemberRole::kReceiver});
  controller.join(id, Member{6, 40, MemberRole::kReceiver});
  EXPECT_EQ(controller.group(id).members.size(), members.size() + 3);
}

TEST(Controller, DuplicateMemberInCreateLeavesNoGroup) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto first = controller.create_group(0, members_of({0, 5}));
  const auto image = snapshot(controller);
  const std::vector<Member> twice{Member{3, 0, MemberRole::kSender},
                                  Member{9, 1, MemberRole::kBoth},
                                  Member{3, 0, MemberRole::kReceiver}};
  const auto good = members_of({1, 9});

  EXPECT_THROW(controller.create_group(0, twice), std::invalid_argument);
  const std::vector<Controller::GroupSpec> specs{{0, good}, {0, twice}};
  EXPECT_THROW(controller.create_groups(specs), std::invalid_argument);
  EXPECT_EQ(controller.group_ids(), std::vector<GroupId>{first});
  EXPECT_EQ(snapshot(controller), image);

  const auto next = controller.create_group(0, good);
  EXPECT_EQ(next, first + 1);
}

TEST(Controller, SenderOnlyJoinUpdatesOneHypervisor) {
  // Paper §5.1.3a: "If a member is a sender, the controller only updates the
  // source hypervisor switch."
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  CountingSink sink{controller};
  const auto id = controller.create_group(0, members_of({0, 1, 8}));

  sink.join(id, Member{33, 9, MemberRole::kSender});
  const auto rates = sink.hypervisor_rates(1.0);
  EXPECT_EQ(rates.total, 1u);
  EXPECT_EQ(sink.leaf_rates(1.0).total, 0u);
  EXPECT_EQ(sink.spine_rates(1.0).total, 0u);
  EXPECT_EQ(sink.core_rates(1.0).total, 0u);
}

TEST(Controller, ReceiverJoinUpdatesSenderHypervisors) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  CountingSink sink{controller};
  std::vector<Member> members{
      Member{0, 0, MemberRole::kSender},
      Member{4, 1, MemberRole::kReceiver},
      Member{8, 2, MemberRole::kBoth},
  };
  const auto id = controller.create_group(0, members);

  sink.join(id, Member{12, 3, MemberRole::kReceiver});
  // Touched: the joining host (12) + the senders (0 and 8).
  EXPECT_EQ(sink.hypervisor_rates(1.0).total, 3u);
}

TEST(Controller, CoreSwitchesNeverUpdated) {
  const auto t = small();
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.hmax_spine = 1;
  Controller controller{t, cfg};
  CountingSink sink{controller};
  std::vector<Member> members;
  for (std::uint32_t i = 0; i < 14; ++i) {
    members.push_back(Member{static_cast<topo::HostId>(i * 4 + 1), i,
                             MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  sink.count(controller.last_change());
  for (std::uint32_t vm = 20; vm < 28; ++vm) {
    sink.join(id, Member{(vm * 4 + 2) % static_cast<std::uint32_t>(
                                   t.num_hosts()),
                               vm, MemberRole::kReceiver});
  }
  EXPECT_GT(sink.hypervisor_rates(1.0).total, 0u);
  EXPECT_EQ(sink.core_rates(1.0).total, 0u);  // the headline property
}

TEST(Controller, SRuleChangesReachNetworkSwitches) {
  const auto t = small();
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;  // most leaves spill to s-rules
  Controller controller{t, cfg};
  CountingSink sink{controller};
  std::vector<Member> members;
  for (std::uint32_t i = 0; i < 16; ++i) {
    members.push_back(
        Member{static_cast<topo::HostId>(i * 4), i, MemberRole::kBoth});
  }
  controller.create_group(0, members);
  sink.count(controller.last_change());
  EXPECT_GT(sink.leaf_rates(1.0).total, 0u);
}

TEST(Controller, HeaderForParsesBack) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(3, members_of({0, 17, 33, 49}));
  const auto header = controller.header_for(id, 0);
  EXPECT_FALSE(header.empty());
  const HeaderCodec codec{t};
  const auto parsed = codec.parse(header);
  EXPECT_TRUE(parsed.u_leaf.has_value());
  EXPECT_TRUE(parsed.core_pods.has_value());
}

TEST(Controller, FailureImpactCountsAffectedGroups) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  // 40 multi-pod groups.
  for (std::uint32_t g = 0; g < 40; ++g) {
    std::vector<Member> members{
        Member{(g * 3) % 16, 0, MemberRole::kBoth},
        Member{16 + (g * 5) % 16, 1, MemberRole::kBoth},
        Member{32 + (g * 7) % 16, 2, MemberRole::kBoth},
    };
    controller.create_group(g, members);
  }
  const auto spine_impact = controller.fail_spine(t.spine_at(0, 0));
  EXPECT_GT(spine_impact.groups_affected(), 0u);
  EXPECT_LT(spine_impact.groups_affected(), 40u);
  EXPECT_GE(spine_impact.hypervisor_updates(), spine_impact.groups_affected());
  controller.restore_spine(t.spine_at(0, 0));

  const auto core_impact = controller.fail_core(t.core_at(0, 0));
  EXPECT_GT(core_impact.groups_affected(), 0u);
  // Core failures affect more groups than a single-pod spine failure
  // (every multi-pod group using that plane, regardless of pod).
  EXPECT_GE(core_impact.groups_affected(), spine_impact.groups_affected());
}

// Checks a failure's change sets: one per affected group, in ascending
// group order, each naming exactly that group's sender hosts (sorted and
// unique) and no s-rule slot; counted, they total hypervisor_updates().
void expect_sender_change_sets(Controller& controller,
                               const Controller::FailureImpact& impact) {
  ASSERT_GT(impact.groups_affected(), 0u);
  CountingSink sink{controller};
  std::optional<GroupId> previous;
  for (const auto& [id, change] : impact.changes) {
    if (previous) {
      EXPECT_LT(*previous, id);
    }
    previous = id;
    auto senders = controller.group(id).sender_hosts();
    std::sort(senders.begin(), senders.end());
    senders.erase(std::unique(senders.begin(), senders.end()), senders.end());
    EXPECT_EQ(change.hosts, senders) << "group " << id;
    EXPECT_TRUE(change.srules.empty()) << "group " << id;
    sink.count(change);
  }
  EXPECT_EQ(sink.hypervisor_rates(1.0).total, impact.hypervisor_updates());
  EXPECT_EQ(sink.leaf_rates(1.0).total + sink.spine_rates(1.0).total +
                sink.core_rates(1.0).total,
            0u);
}

TEST(Controller, FailureChangeSetsNameTheSenders) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  // Multi-pod groups whose members carry every role, with two VMs of some
  // groups on one sender host, so sender lists hold receivers to skip and
  // repeats to fold.
  const MemberRole roles[] = {MemberRole::kSender, MemberRole::kReceiver,
                              MemberRole::kBoth};
  for (std::uint32_t g = 0; g < 40; ++g) {
    const topo::HostId shared = (g * 3) % 16;
    std::vector<Member> members{
        Member{shared, 0, roles[g % 3]},
        Member{shared, 1, roles[(g + 1) % 3]},
        Member{16 + (g * 5) % 16, 2, roles[(g + 2) % 3]},
        Member{32 + (g * 7) % 16, 3, MemberRole::kBoth},
    };
    controller.create_group(g, members);
  }
  const auto before = controller.last_change();

  for (std::uint32_t plane = 0; plane < t.params().spines_per_pod; ++plane) {
    const auto spine = t.spine_at(0, plane);
    const auto impact = controller.fail_spine(spine);
    expect_sender_change_sets(controller, impact);
    controller.restore_spine(spine);
  }
  const auto core = t.core_at(0, 0);
  expect_sender_change_sets(controller, controller.fail_core(core));
  controller.restore_core(core);
  // Failures return their change sets; last_change() is a membership
  // call's record and stays as the last create_group left it.
  EXPECT_EQ(controller.last_change().hosts, before.hosts);
  EXPECT_EQ(controller.last_change().srules, before.srules);
}

TEST(Controller, FailureChangesIssuedHeaders) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(0, members_of({0, 16}));
  const auto before = controller.header_for(id, 0);
  controller.fail_spine(t.spine_at(0, 0));
  const auto after = controller.header_for(id, 0);
  const HeaderCodec codec{t};
  EXPECT_TRUE(codec.parse(before).u_leaf->multipath);
  EXPECT_FALSE(codec.parse(after).u_leaf->multipath);
}

// A join or leave edits the group's tree in place and re-encodes it. After
// every random join or leave that must equal the from-scratch path: a tree
// built from the receiver hosts, and release + encode against the space as
// it stood before the event — the same tree, encoding and Fmax occupancy.
// Sender-only events re-encode nothing. Spine and leaf budgets of one and
// two p-rules force s-rules, and a finite Fmax forces defaults.
void expect_incremental_reencode_matches_scratch(EncoderKind kind,
                                                 std::size_t fmax,
                                                 bool legacy,
                                                 bool failed_spine) {
  SCOPED_TRACE(std::string{to_string(kind)} + " fmax " + std::to_string(fmax) +
               (legacy ? " legacy" : "") + (failed_spine ? " failed" : ""));
  const auto t = small();
  EncoderConfig cfg;
  cfg.encoder = kind;
  cfg.hmax_spine = 1;
  cfg.kmax_spine = 1;
  cfg.hmax_leaf_override = 2;
  cfg.redundancy_limit = 2;
  cfg.srule_capacity = fmax;
  Controller controller{t, cfg};
  std::vector<bool> legacy_leaves;
  if (legacy) {
    legacy_leaves.assign(t.num_leaves(), false);
    for (std::size_t leaf = 0; leaf < t.num_leaves(); leaf += 3) {
      legacy_leaves[leaf] = true;
    }
    controller.set_legacy_leaves(legacy_leaves);
  }
  const auto* legacy_mask = legacy ? &legacy_leaves : nullptr;

  // Two VM ids per host, so a host often carries two VMs of one group.
  util::Rng rng{fmax * 7 + (legacy ? 3 : 0) + (failed_spine ? 1 : 0) +
                static_cast<std::uint64_t>(kind) * 101};
  auto random_member = [&] {
    const auto roll = rng.uniform_int(0, 2);
    return Member{static_cast<topo::HostId>(
                      rng.uniform_int(0, t.num_hosts() - 1)),
                  static_cast<std::uint32_t>(rng.uniform_int(0, 1)),
                  roll == 0   ? MemberRole::kSender
                  : roll == 1 ? MemberRole::kReceiver
                              : MemberRole::kBoth};
  };
  auto is_member = [](const GroupState& g, const Member& m) {
    return std::any_of(g.members.begin(), g.members.end(), [&](const Member& x) {
      return x.host == m.host && x.vm == m.vm;
    });
  };
  std::vector<GroupId> ids;
  for (std::uint32_t tenant = 0; tenant < 6; ++tenant) {
    std::vector<Member> members;
    while (members.size() < 12) {
      const auto m = random_member();
      if (std::none_of(members.begin(), members.end(), [&](const Member& x) {
            return x.host == m.host && x.vm == m.vm;
          })) {
        members.push_back(m);
      }
    }
    ids.push_back(controller.create_group(tenant, members));
  }
  if (failed_spine) controller.fail_spine(t.spine_at(1, 0));

  std::size_t receiver_events = 0;
  for (int step = 0; step < 400; ++step) {
    const auto id = ids[rng.uniform_int(0, ids.size() - 1)];
    const auto& g = controller.group(id);
    const SRuleSpace space_before = controller.srule_space();
    const GroupEncoding encoding_before = g.encoding;

    bool receives = false;
    if (g.members.size() > 3 && rng.uniform_int(0, 1) == 0) {
      const auto m = g.members[rng.uniform_int(0, g.members.size() - 1)];
      receives = can_receive(m.role);
      controller.leave(id, m.host, m.vm);
    } else {
      const auto m = random_member();
      if (is_member(g, m)) continue;
      receives = can_receive(m.role);
      controller.join(id, m);
    }

    const MulticastTree scratch{t, g.receiver_hosts()};
    ASSERT_EQ(*g.tree, scratch) << "step " << step;
    SRuleSpace space = space_before;
    GroupEncoding expected = encoding_before;
    if (receives) {
      ++receiver_events;
      controller.encoder().release(encoding_before, space);
      expected = controller.encoder().encode(scratch, &space, legacy_mask);
    }
    ASSERT_EQ(g.encoding, expected) << "step " << step;
    ASSERT_TRUE(std::ranges::equal(space.leaf_occupancies(),
                                   controller.srule_space().leaf_occupancies()))
        << "step " << step;
    ASSERT_TRUE(
        std::ranges::equal(space.spine_occupancies(),
                           controller.srule_space().spine_occupancies()))
        << "step " << step;
  }
  EXPECT_GT(receiver_events, 100u);
}

TEST(Controller, InPlaceReencodeMatchesFromScratch) {
  for (const auto kind : kAllEncoderKinds) {
    for (const std::size_t fmax :
         {std::size_t{2}, std::numeric_limits<std::size_t>::max()}) {
      for (const bool legacy : {false, true}) {
        for (const bool failed_spine : {false, true}) {
          expect_incremental_reencode_matches_scratch(kind, fmax, legacy,
                                                      failed_spine);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace elmo
