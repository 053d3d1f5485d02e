// Randomized end-to-end scenarios for the differential verification harness.
//
// A Scenario is a fully concrete, replayable description of one fuzz run:
// topology parameters, encoder knobs, legacy-leaf placement, initial group
// memberships, and an ordered event script (joins, leaves, switch failures
// and restorations, multicast sends). Everything is derived deterministically
// from a single 64-bit seed, so a CI failure reports one number that
// reproduces the exact run (see README, "Replaying a failing seed").
//
// Scenarios are plain data so the shrinker (shrink.h) can delete groups,
// events, and members and re-run the result; normalize() repairs whatever an
// edit made inconsistent (leaves of departed members, sends from hosts that
// can no longer source the group) instead of forcing every edit to be valid
// by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "elmo/controller.h"
#include "elmo/rules.h"
#include "topology/clos.h"

namespace elmo::verify {

// One scripted event. Fields are interpreted per kind; unused fields stay 0.
enum class EventKind : std::uint8_t {
  kJoin,          // group_index, member
  kLeave,         // group_index, member (host, vm identify the victim)
  kFailSpine,     // switch_id
  kFailCore,      // switch_id
  kRestoreSpine,  // switch_id
  kRestoreCore,   // switch_id
  kSend,          // group_index, sender
  // member.host names the failed host: every VM on it leaves every group at
  // once (stream::ControlPlane::host_fail). Appended last so historical
  // fixture files keep their numeric kind values.
  kHostFail,
};

struct Event {
  EventKind kind = EventKind::kSend;
  std::size_t group_index = 0;  // index into Scenario::groups
  Member member;                // kJoin / kLeave
  std::uint32_t switch_id = 0;  // kFailSpine / kFailCore / kRestore*
  topo::HostId sender = 0;      // kSend
};

struct ScenarioGroup {
  std::uint32_t tenant = 0;
  std::vector<Member> members;
};

struct Scenario {
  std::uint64_t seed = 0;  // provenance only; replay derives from the script
  topo::ClosParams params = topo::ClosParams::small_test();
  EncoderConfig config;
  std::vector<bool> legacy_leaves;  // indexed by global leaf id; may be empty
  std::vector<ScenarioGroup> groups;
  std::vector<Event> events;
};

// Whether `host` sits behind a leaf that `legacy` (indexed by global leaf
// id, like Scenario::legacy_leaves; may be empty) marks as legacy. Such a
// host cannot source a group past its rack (paper §7).
bool host_on_legacy_leaf(const topo::ClosTopology& topo,
                         const std::vector<bool>& legacy, topo::HostId host);

// Deterministically expands `seed` into a scenario: a topology drawn from a
// small ladder, encoder knobs that sometimes force tight header budgets or
// Fmax exhaustion, sometimes a legacy-leaf mix, co-located members with
// non-trivial probability, and an event script that interleaves churn,
// failures, and sends (ending with a send sweep over every group).
Scenario generate_scenario(std::uint64_t seed);

// Extends `scenario`'s event script with `count` additional churn-heavy
// events (join/leave-biased, with periodic sends and a closing send sweep),
// derived deterministically from the scenario seed (on an rng stream of its
// own, so one seed always appends the same events). The existing
// script is replayed into a membership mirror first, so every appended
// event is valid against the state the run will actually be in. Used by
// the continuous-churn fuzz campaign (tools/fuzz_pipeline --churn_events=N,
// and tools/trace_query, which traces the same script) to stress the streaming control plane's delta installs far beyond the
// handful of churn events generate_scenario emits.
void append_churn_events(Scenario& scenario, std::size_t count);

// Drops events a prior edit made unexecutable (leave of a non-member, send
// from a host with no sending member, churn on an empty/removed group,
// restore of a never-failed switch) and clamps members/senders to hosts that
// exist under `params`. Idempotent; called by the shrinker after every edit.
void normalize(Scenario& scenario);

}  // namespace elmo::verify
