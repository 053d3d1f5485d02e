#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "verify/differ.h"
#include "verify/oracle.h"
#include "verify/scenario.h"
#include "verify/shrink.h"

namespace elmo::verify {
namespace {

Event send_from(topo::HostId sender) {
  Event e;
  e.kind = EventKind::kSend;
  e.sender = sender;
  return e;
}

Event membership_event(EventKind kind, const Member& member) {
  Event e;
  e.kind = kind;
  e.member = member;
  return e;
}

// A bounded slice of what CI runs at scale: every seed must diff clean
// against the delivery oracle across the whole generated topology ladder.
TEST(FuzzPipeline, CleanSeedsPass) {
  std::size_t sends = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto scenario = generate_scenario(seed);
    const auto report = run_scenario(scenario);
    EXPECT_TRUE(report.ok) << "seed=" << seed << ": " << report.failure;
    sends += report.sends_checked;
  }
  EXPECT_GT(sends, 0u);
}

// The same seeds with heavy appended churn, streamed through the control
// plane (incremental re-encode + coalesced delta installs over the wire
// channel). The runner digest-diffs the fabric against a fresh batch
// install after EVERY event, so a pass means the streamed deltas never
// diverged from from-scratch state at any point in the run.
TEST(FuzzPipeline, ChurnedSeedsPassWithContinuousStateDiff) {
  std::size_t sends = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    auto scenario = generate_scenario(seed);
    append_churn_events(scenario, 40);
    const auto report = run_scenario(scenario);
    EXPECT_TRUE(report.ok) << "seed=" << seed << ": " << report.failure;
    sends += report.sends_checked;
  }
  EXPECT_GT(sends, 0u);
}

// Appended churn is deterministic per seed and valid by
// construction: normalize() — which drops every unexecutable event — must
// keep the script unchanged.
TEST(ScenarioGenerator, AppendedChurnIsDeterministicAndValid) {
  auto a = generate_scenario(77);
  auto b = generate_scenario(77);
  append_churn_events(a, 50);
  append_churn_events(b, 50);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].group_index, b.events[i].group_index) << i;
    EXPECT_EQ(a.events[i].member.host, b.events[i].member.host) << i;
    EXPECT_EQ(a.events[i].member.vm, b.events[i].member.vm) << i;
  }
  const auto before = a.events.size();
  EXPECT_GE(before, 50u);
  normalize(a);
  EXPECT_EQ(a.events.size(), before)
      << "append_churn_events emitted an event normalize considers invalid";
}

// The harness validates itself: every fault in the mutation catalog must be
// caught (applied && !ok) within a short seed scan, or the differ has a
// blind spot.
TEST(FuzzPipeline, MutationsAreCaught) {
  for (const auto mutation : kAllMutations) {
    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 60 && !caught; ++seed) {
      const auto report = run_scenario(generate_scenario(seed), mutation);
      caught = report.applied && !report.ok;
    }
    EXPECT_TRUE(caught) << "mutation " << to_string(mutation)
                        << " survived 60 seeds";
  }
}

// The pre-fix ChurnSimulator bug — leaves resolved by host only — is exactly
// Mutation::kLeaveByHostOnly. A handcrafted co-location scenario shows the
// harness catches it directly, without any seed scanning.
TEST(FuzzPipeline, CatchesLeaveByHostOnlyUnderColocation) {
  Scenario s;
  s.groups.push_back(ScenarioGroup{
      0,
      {Member{0, 0, MemberRole::kBoth}, Member{0, 1, MemberRole::kReceiver},
       Member{1, 2, MemberRole::kReceiver}}});
  s.events.push_back(send_from(0));
  s.events.push_back(membership_event(EventKind::kLeave,
                                      Member{0, 1, MemberRole::kReceiver}));
  s.events.push_back(send_from(0));
  normalize(s);
  ASSERT_EQ(s.events.size(), 3u);

  const auto clean = run_scenario(s);
  EXPECT_TRUE(clean.ok) << clean.failure;

  // The buggy leave removes the FIRST member on host 0 (vm 0, the sender)
  // instead of the requested vm 1 — membership diverges immediately.
  const auto buggy = run_scenario(s, Mutation::kLeaveByHostOnly);
  EXPECT_TRUE(buggy.applied);
  EXPECT_FALSE(buggy.ok);
}

TEST(FuzzPipeline, NormalizeDropsInvalidEvents) {
  Scenario s;
  s.groups.push_back(ScenarioGroup{
      0,
      {Member{0, 0, MemberRole::kBoth}, Member{1, 1, MemberRole::kReceiver}}});
  // Duplicate join of an existing member.
  s.events.push_back(
      membership_event(EventKind::kJoin, Member{0, 0, MemberRole::kBoth}));
  // Leave of a member that was never in the group.
  s.events.push_back(
      membership_event(EventKind::kLeave, Member{3, 9, MemberRole::kReceiver}));
  // Restore of a spine that never failed.
  Event restore;
  restore.kind = EventKind::kRestoreSpine;
  restore.switch_id = 0;
  s.events.push_back(restore);
  // Send from a host whose only member cannot send.
  s.events.push_back(send_from(1));
  // The one executable event.
  s.events.push_back(send_from(0));

  normalize(s);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].kind, EventKind::kSend);
  EXPECT_EQ(s.events[0].sender, 0u);

  const auto report = run_scenario(s);
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(Shrink, ProducesMinimalFixtureForSeededFault) {
  Scenario failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 50 && !found; ++seed) {
    auto candidate = generate_scenario(seed);
    const auto report = run_scenario(candidate, Mutation::kLeaveByHostOnly);
    if (report.applied && !report.ok) {
      failing = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..50 triggered the churn-desync fault";

  const auto minimal = shrink(failing, Mutation::kLeaveByHostOnly, 200);
  const auto report = run_scenario(minimal, Mutation::kLeaveByHostOnly);
  EXPECT_FALSE(report.ok) << "shrunk scenario no longer fails";
  EXPECT_LE(minimal.groups.size(), failing.groups.size());
  EXPECT_LE(minimal.events.size(), failing.events.size());

  const auto fixture = to_fixture(minimal);
  EXPECT_NE(fixture.find("TEST(FuzzRepro"), std::string::npos) << fixture;
  EXPECT_NE(fixture.find("run_scenario"), std::string::npos) << fixture;
}

// The fixture names its scheme through the scheme table, and a P3FA class
// count only when it differs from the default.
TEST(Shrink, FixtureNamesEveryEncoderKind) {
  auto scenario = generate_scenario(1);
  for (const auto kind : kAllEncoderKinds) {
    scenario.config.encoder = kind;
    scenario.config.p3fa_egress_classes = 2;
    const auto fixture = to_fixture(scenario);
    const std::string line = std::string{"elmo::parse_encoder_kind(\""} +
                             to_string(kind) + "\")";
    EXPECT_EQ(fixture.find(line) != std::string::npos,
              kind != EncoderConfig{}.encoder)
        << fixture;
    EXPECT_NE(fixture.find("sc.config.p3fa_egress_classes = 2;"),
              std::string::npos);
  }
  scenario.config.p3fa_egress_classes = EncoderConfig{}.p3fa_egress_classes;
  EXPECT_EQ(to_fixture(scenario).find("p3fa_egress_classes"),
            std::string::npos);
}

// Oracle semantics pinned directly: the sender's own host never appears in
// the expected set (local delivery bypasses the fabric) and the receiving-VM
// counts mirror co-located membership.
TEST(DeliveryOracle, ExcludesSenderHostAndCountsColocatedVms) {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  Controller controller{topology, EncoderConfig{}};
  const std::vector<Member> members{Member{0, 0, MemberRole::kBoth},
                                    Member{0, 1, MemberRole::kReceiver},
                                    Member{2, 2, MemberRole::kReceiver},
                                    Member{2, 3, MemberRole::kReceiver}};
  const auto id = controller.create_group(0, members);

  DeliveryOracle oracle{topology, {}};
  oracle.create_group(members);

  const auto ex = oracle.expect(0, controller.group(id).encoding, 0);
  EXPECT_FALSE(ex.duplicates_allowed);
  ASSERT_EQ(ex.expected_hosts.size(), 1u);
  ASSERT_TRUE(ex.expected_hosts.contains(2));
  EXPECT_EQ(ex.expected_hosts.at(2), 2u);
  // Host 0 still fans out to both local receivers when a copy arrives from
  // some OTHER sender's host.
  EXPECT_EQ(oracle.receiving_vms_on(0, 0), 2u);
}

TEST(DeliveryOracle, FailureMirrorGatesReachability) {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  DeliveryOracle oracle{topology, {}};
  EXPECT_TRUE(oracle.failures().empty());
  oracle.fail_spine(0);
  EXPECT_TRUE(oracle.failures().spine_failed(0));
  oracle.restore_spine(0);
  EXPECT_TRUE(oracle.failures().empty());
}

TEST(ScenarioGenerator, IsDeterministicPerSeed) {
  const auto a = generate_scenario(12345);
  const auto b = generate_scenario(12345);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].group_index, b.events[i].group_index) << i;
    EXPECT_EQ(a.events[i].sender, b.events[i].sender) << i;
  }
  const auto c = generate_scenario(12346);
  const bool differs = a.events.size() != c.events.size() ||
                       a.groups.size() != c.groups.size() ||
                       a.seed != c.seed;
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace elmo::verify
