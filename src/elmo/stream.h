// Streaming control plane (ROADMAP "long-running controller service"):
// consumes Join / Leave / HostFail events and spine or core failures and
// restores, re-encodes only the affected group (Controller::join/leave are
// already incremental) or re-routes only the groups on the failed plane,
// and pushes the *delta* between what the fabric holds and the new rules
// over the p4rt wire channel into a live sim::Fabric — instead of
// re-pushing whole-group state per event.
//
// Rules reach a fabric one way, through this plane's diff. Every event
// takes one path: its controller call returns the change sets of the groups
// it changed (a join's or leave's last_change, a FailureImpact otherwise),
// and the plane diffs each of them. sync is the same diff over whole
// groups: it installs a bulk load, adopts a fabric filled elsewhere,
// removes the rules of removed groups and repairs any slot that drifted.
//
// The plane keeps no copy of installed state, so a short-lived set-up plane
// may sync a fabric that another plane then streams events into. A group's
// desired rules come from p4rt::compile, filtered to the slots being
// diffed: for an event, the flows of the hosts its change set names and
// the s-rules at the switches it names, not the whole group. Each is
// compared exactly with what its slot will hold once pending updates flush:
// the pending update for that rule if one is queued, else the fabric's
// installed flow or s-rule. Only rules that differ are queued. A diffed slot
// the group no longer compiles, but that pending or installed state still
// holds, is deleted. The change set is complete (every rule an event
// rewrites sits at a slot it names), so a slot outside it holds what it
// held before the event.
//
// Updates are coalesced and batched: pending updates are keyed by rule
// location, and a newer desired state for the same key replaces the older
// update — by a newer update, or by none when the fabric already holds it
// (a join undone by a leave before the flush sends nothing). The wire sees
// only what changes the fabric, and the batch is flushed through
// p4rt::encode/decode into Fabric::apply when it reaches
// ControlPlaneOptions::flush_threshold (or on an explicit flush()). Per-
// event ingest-to-install lag is recorded at flush time.
//
// ControlPlaneStats is the plane's only record of what it did;
// accumulate_plane_metrics exports it into a metrics registry once, at the
// end of a run, as sim::accumulate_fabric_metrics does for the fabric.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "elmo/churn.h"
#include "elmo/controller.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "p4rt/runtime.h"
#include "sim/fabric.h"
#include "util/stats.h"

namespace elmo::stream {

struct ControlPlaneOptions {
  // Pending rule updates that trigger an automatic flush. 1 = install every
  // event immediately; larger values trade install lag for batching.
  std::size_t flush_threshold = 64;
};

struct ControlPlaneStats {
  std::uint64_t events = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t host_fails = 0;
  // Spine or core failures and restores.
  std::uint64_t switch_events = 0;
  // Events whose diffs left the pending updates as they were: every slot
  // they diffed already held, or was queued to hold, its desired state.
  std::uint64_t clean_events = 0;
  // Rules the diffs compiled to compare with installed state: the slots of
  // each event's change sets.
  std::uint64_t rules_compiled = 0;

  std::uint64_t flushes = 0;
  std::uint64_t batches_encoded = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t updates_applied = 0;
  // A pending update replaced before it ever reached the wire (the value of
  // coalescing): overwritten by a newer update for the same rule, or dropped
  // because the fabric already holds the rule's newer desired state.
  std::uint64_t updates_coalesced = 0;

  // Per-layer applied-update counters (what Table 2 attributes per switch).
  std::uint64_t flow_adds = 0;
  std::uint64_t flow_dels = 0;
  std::uint64_t leaf_srule_adds = 0;
  std::uint64_t leaf_srule_dels = 0;
  std::uint64_t spine_srule_adds = 0;
  std::uint64_t spine_srule_dels = 0;

  // Ingest-to-install latency of each event, measured when its flush lands.
  util::Distribution install_lag_seconds;
};

class ControlPlane final : public MembershipDriver {
 public:
  ControlPlane(Controller& controller, sim::Fabric& fabric,
               ControlPlaneOptions options = {});

  // --- event ingestion -----------------------------------------------------
  // An event the controller rejects (unknown group, non-member leave, a
  // host or switch outside the topology) rethrows its exception having
  // counted nothing, queued nothing, stamped no ingest time and closed every
  // span it opened.
  //
  // MembershipDriver: lets a ChurnSimulator stream through this plane.
  void join(GroupId group, const Member& member) override;
  Member leave(GroupId group, topo::HostId host, std::uint32_t vm) override;
  // Every member VM hosted on `host` leaves its group (the host died,
  // Controller::host_fail). Returns the controller's impact.
  Controller::FailureImpact host_fail(topo::HostId host);
  // A spine or core switch fails or comes back (paper §3.3): the controller
  // re-routes the senders of the groups on its plane. Returns the
  // controller's impact. Marking the switch down in the fabric is the
  // caller's part (sim::Fabric models the physical failure, the plane only
  // the control channel).
  Controller::FailureImpact fail_spine(topo::SpineId spine);
  Controller::FailureImpact fail_core(topo::CoreId core);
  Controller::FailureImpact restore_spine(topo::SpineId spine);
  Controller::FailureImpact restore_core(topo::CoreId core);

  // Drains pending updates into the fabric through the wire channel.
  // Returns the number of rule updates applied.
  std::size_t flush();
  std::size_t pending() const noexcept { return pending_.size(); }

  // --- whole-group sync ----------------------------------------------------
  // Brings the fabric's rules for `groups` to what the controller holds:
  // afterwards the fabric holds exactly p4rt::compile_install(g) for each
  // live id, and nothing under the address (net::Ipv4Address::
  // multicast_group) of an id that is not live. One fold of the fabric reads
  // back the slots installed under each id's address (pending updates'
  // slots count too); each id is then diffed over those slots and every
  // slot it compiles, so this installs, adopts, removes (after
  // Controller::remove_group) and repairs in one pass.
  // Flushes whenever pending() reaches flush_threshold between groups, and
  // once at the end. A sync is not an event: it counts no event and stamps
  // no ingest time. Returns the number of rule updates applied.
  std::size_t sync(std::span<const GroupId> groups);

  // Only checks that `group` is live (std::out_of_range otherwise): the
  // plane keeps no installed state to seed. Left for the end-to-end
  // benchmark's set-up (perfbench), which fills its fabric with
  // sim::Fabric::install_group; everything else syncs.
  void track_group(GroupId group);

  const ControlPlaneStats& stats() const noexcept { return stats_; }

  // --- causal tracing (DESIGN.md §15) --------------------------------------
  // Attaches a tracer to the plane AND its fabric (nullptr detaches both; not
  // owned). While attached, every churn event opens a trace — a root span on
  // the control lane with a child for the controller call ("reencode" or
  // "reroute") and one "delta_diff" — each flush gets a wire-lane trace with
  // p4rt framing children and per-update install spans, cross-linked by flow
  // events, and join, leave and host-fail events arm the fabric's
  // time-to-effect watches. Detached (the default), ingest pays one
  // null test per event and flush applies updates without spans.
  void set_tracer(obs::Tracer* tracer) noexcept {
    tracer_ = tracer;
    fabric_->set_tracer(tracer);
  }

 private:
  // A rule's slot within its group: (kHost, host) for a hypervisor flow,
  // (layer, physical switch) for an s-rule.
  using RuleSlot = std::pair<topo::Layer, std::uint32_t>;
  // Rule location; std::map keeps flush order deterministic: flows first,
  // then s-rules, each by (group address, slot).
  struct PendingKey {
    std::uint32_t group = 0;  // group address
    RuleSlot slot;
    bool operator<(const PendingKey& other) const {
      return std::tuple{slot.first != topo::Layer::kHost, group, slot} <
             std::tuple{other.slot.first != topo::Layer::kHost, other.group,
                        other.slot};
    }
  };

  // Which time-to-effect watch an event arms on its host in each group it
  // changed (traced planes only).
  enum class Watch : std::uint8_t { kNone, kJoin, kLeave };
  struct Event {
    const char* root;   // the event's root span
    const char* stage;  // the child span of the controller call
    std::uint64_t ControlPlaneStats::*count;  // its kind's counter
    Watch watch = Watch::kNone;
    topo::HostId host = 0;  // the watched host
  };
  // The one event path. Opens the root span {attrs}, runs `call` (the
  // controller call; returns the change sets of the groups it changed)
  // under the stage span, then stamps the ingest time, counts the event,
  // diffs every change set under one "delta_diff" span, arms the watches
  // and auto-flushes. A call that throws closes both spans and rethrows.
  template <typename Call>
  Controller::FailureImpact run_event(
      const Event& event, std::initializer_list<obs::TraceAttr> attrs,
      Call&& call);
  // Compiles the rules of `group` at the slots of `changed` (none when the
  // group is not live) and settles each slot of `changed` to its rule, or
  // to empty where the group no longer compiles one. Returns whether it
  // edited the pending updates.
  bool diff_group(GroupId group, const RuleSlots& changed);
  // Makes `key` hold `rule` (nothing, for a null rule) once pending updates
  // flush: no edit when the pending update already does so or, with none
  // pending, the fabric already holds it; a dropped pending update when the
  // fabric already holds it; else `rule` (moved from) or a delete is
  // queued. Returns whether it edited the pending updates.
  bool settle(const PendingKey& key, p4rt::Update* rule);
  // Whether the fabric holds a rule at `key` and, unless `rule` is null,
  // exactly `rule`. Pending updates are not consulted.
  bool installed(const PendingKey& key, const p4rt::Update* rule) const;
  // Arms `event`'s watch on its host in `group`. A join watch closes at the
  // first delivery over the fresh rule; a leave watch, armed only when no
  // member is left on the host, measures the stale deliveries until the
  // flow removal lands.
  void arm_watch(const Event& event, GroupId group,
                 const obs::TraceContext& root);

  Controller* controller_;
  sim::Fabric* fabric_;
  ControlPlaneOptions options_;
  ControlPlaneStats stats_;

  // A queued rule update and the churn event that (last) produced it, so
  // flush can attribute each install to its causing event even across
  // coalescing: the newest producer wins, for both the update and its
  // attribution (an empty context when it came from no traced event).
  struct Pending {
    p4rt::Update update;
    obs::TraceContext ctx;
  };
  std::map<PendingKey, Pending> pending_;
  // Ingest timestamps of events awaiting their flush.
  std::vector<std::chrono::steady_clock::time_point> pending_event_times_;

  // Tracing state: the root context of the latest event's diff, stamped
  // onto every update it queues.
  obs::Tracer* tracer_ = nullptr;
  obs::TraceContext event_ctx_{};
};

// One-shot export, like sim::accumulate_fabric_metrics: registers the
// elmo_stream_* series (idempotent) and adds `stats` into `reg`, one series
// per ControlPlaneStats field plus per-layer update sums, and every
// install-lag sample into the elmo_stream_install_lag_seconds histogram.
// Call once per plane at the end of a run; calling again adds again.
void accumulate_plane_metrics(const ControlPlaneStats& stats,
                              obs::MetricsRegistry& reg);

// Installed-state digests, the referee of every state check: the controller
// is the source of truth (paper §2), so a check asks whether
// fabric_state_digest(fabric) == compiled_state_digest(controller), and no
// reference fabric is built. A digest sums one splitmix64-mixed term per
// rule — a flow by (group, host, vni, VM set, header), an s-rule by (group,
// layer, switch, bitmap) — so neither table, rule nor VM order matters, and
// an edit of some rules moves it by rules_digest(edited) - rules_digest(old).

// Folds every hypervisor flow and leaf/spine s-rule installed in `fabric`.
std::uint64_t fabric_state_digest(const sim::Fabric& fabric);
// Folds the adds of `updates`; a delete carries no installed state and
// folds to nothing. Equal to fabric_state_digest of a fresh fabric the adds
// are applied to, as long as no two adds share a rule slot.
std::uint64_t rules_digest(std::span<const p4rt::Update> updates);
// rules_digest of p4rt::compile_install for every live group: the digest
// of the state the controller's current encodings call for.
std::uint64_t compiled_state_digest(const Controller& controller);

}  // namespace elmo::stream
