// Logically-centralized Elmo controller (paper §2).
//
// Owns group membership, computes multicast trees and encodings, and tracks
// s-rule capacity. Every call that changes a group records one change set
// (RuleSlots, read through last_change): the hypervisors whose flow it may
// have rewritten and the physical switches whose s-rule changed. That set
// is the one answer to "what did this event touch", and the controller's
// only report of it: Table 2 counts it (CountingSink) and the streaming
// control plane diffs and deletes by it. A failure, a restore or a host
// failure returns one per group it changed (FailureImpact).
//
// Multipath is per group (paper §3.3): all senders of a group take the
// plane topo::group_hash picks, so one predicate, route_failures, decides
// both which groups a failure reports and which groups' senders leave
// multipath for explicit upstream ports.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "elmo/evaluator.h"
#include "elmo/tree_encoder.h"
#include "elmo/rules.h"
#include "elmo/srule_space.h"
#include "elmo/tree.h"
#include "net/headers.h"
#include "topology/clos.h"
#include "util/thread_pool.h"

namespace elmo {

using GroupId = std::uint32_t;

enum class MemberRole : std::uint8_t { kSender, kReceiver, kBoth };

inline bool can_send(MemberRole role) noexcept {
  return role != MemberRole::kReceiver;
}
inline bool can_receive(MemberRole role) noexcept {
  return role != MemberRole::kSender;
}

struct Member {
  topo::HostId host = 0;
  std::uint32_t vm = 0;  // tenant-local VM index
  MemberRole role = MemberRole::kBoth;
};

// What one controller call changed (paper §5.1.3, Table 2): the hypervisors
// whose flow (VM list or header template) it may have rewritten, and the
// physical switches whose s-rule for the group it added, rewrote or removed.
// Cores never appear: they hold no multicast state. Both lists are sorted
// and unique.
struct RuleSlots {
  std::vector<topo::HostId> hosts;
  // (kLeaf, leaf id) or (kSpine, physical spine id).
  std::vector<std::pair<topo::Layer, std::uint32_t>> srules;

  // Adds `other`'s slots, keeping both lists sorted and unique.
  void merge(const RuleSlots& other);
};

struct GroupState {
  std::uint32_t tenant = 0;
  net::Ipv4Address address;
  std::vector<Member> members;
  // Over the hosts of receiving members, edited in place as they join and
  // leave.
  std::unique_ptr<MulticastTree> tree;
  GroupEncoding encoding;

  std::vector<topo::HostId> receiver_hosts() const;
  std::vector<topo::HostId> sender_hosts() const;
};

class Controller {
 public:
  Controller(const topo::ClosTopology& topology, const EncoderConfig& config);

  // Incremental deployment (§7): mark leaves whose switches are legacy
  // (group-table only). Affects groups encoded afterwards.
  void set_legacy_leaves(std::vector<bool> legacy) {
    legacy_leaves_ = std::move(legacy);
  }
  const std::vector<bool>& legacy_leaves() const noexcept {
    return legacy_leaves_;
  }

  // --- group lifecycle (tenant-facing API, paper §2) ----------------------
  // Membership is a set of (host, vm) pairs; a member's role is an attribute,
  // not part of its identity. create_group, create_groups and join throw,
  // before any state changes, std::out_of_range for a member host outside
  // the topology and std::invalid_argument for a (host, vm) pair listed
  // twice or (join) already in the group, whatever either role. A role
  // change is a leave followed by a join.
  GroupId create_group(std::uint32_t tenant, std::span<const Member> members);

  // Bulk creation request for create_groups; `members` must stay alive for
  // the duration of the call.
  struct GroupSpec {
    std::uint32_t tenant = 0;
    std::span<const Member> members;
  };

  using BulkLoadStats = elmo::BulkLoadStats;

  // Creates all `specs` as consecutive group ids through one
  // TreeEncoder::encode_batch: the per-group trees are built in its
  // parallel phase on `pool`. The resulting p-rules, s-rules and
  // occupancies are bit-identical to calling create_group in a loop, at any
  // thread count (pool == nullptr or 1 thread included); see DESIGN.md §5
  // for the argument. Adds to `stats` when it is non-null.
  std::vector<GroupId> create_groups(std::span<const GroupSpec> specs,
                                     util::ThreadPool* pool = nullptr,
                                     BulkLoadStats* stats = nullptr);

  void remove_group(GroupId group);
  void join(GroupId group, const Member& member);
  // Removes exactly the member (host, vm) and returns it; throws
  // std::invalid_argument if that pair is not in the group.
  Member leave(GroupId group, topo::HostId host, std::uint32_t vm);

  // --- failure handling (§3.3, §5.1.3b) -----------------------------------
  // One change set per group a failure, restore or host failure changed.
  // None of these calls touches last_change().
  struct FailureImpact {
    std::vector<std::pair<GroupId, RuleSlots>> changes;  // ascending group id

    std::size_t groups_affected() const noexcept { return changes.size(); }
    std::size_t hypervisor_updates() const noexcept;
  };
  // Every member VM on `host` leaves its group (the host died), one leave
  // each, groups in ascending id and VMs in member order. A group's change
  // set is the union of its leaves', s-rule slots included.
  FailureImpact host_fail(topo::HostId host);
  // fail_* marks the switch failed and restore_* alive again. Each returns
  // one change set per group that crossed a failed switch (route_failures
  // non-empty) before or after the call: its sender hosts, whose upstream
  // rules are re-issued, and no s-rule slot. Both sides count because an
  // explicit route's greedy cover reads the whole failure set. host_fail
  // and these throw std::out_of_range for a host or switch outside the
  // topology, before any state changes.
  FailureImpact fail_spine(topo::SpineId spine);
  FailureImpact fail_core(topo::CoreId core);
  FailureImpact restore_spine(topo::SpineId spine);
  FailureImpact restore_core(topo::CoreId core);
  const topo::FailureSet& failures() const noexcept { return failures_; }
  // The failures the senders of `group` route around: failures() when a
  // failed switch lies on the group's plane, else an empty set (multipath
  // stays on). A spine (p, k) lies on it when k is the group's plane
  // (ClosTopology::ecmp_plane of topo::group_hash), the members, senders
  // and receivers alike, span more than one leaf and one of them is in pod
  // p; a core of plane k when the members span more than one pod. Members
  // and not the receiver tree: a sender off the tree's leaves still climbs
  // to its pod's spine. Every header the controller issues is
  // MulticastTree::sender_route(sender, route_failures(group)).
  const topo::FailureSet& route_failures(GroupId group) const;

  // --- observers -----------------------------------------------------------
  const GroupState& group(GroupId group) const;
  bool has_group(GroupId group) const;
  std::size_t num_groups() const noexcept { return live_groups_; }
  const TreeEncoder& encoder() const noexcept { return encoder_; }
  SRuleSpace& srule_space() noexcept { return srule_space_; }
  const topo::ClosTopology& topology() const noexcept { return *topo_; }
  // Ids of the live groups, ascending.
  std::vector<GroupId> group_ids() const;
  // The change set of the latest create_group, join, leave or remove_group
  // call. create_groups records an empty one: a bulk load is synced
  // (stream::ControlPlane::sync reads the fabric back), not diffed by
  // change set.
  const RuleSlots& last_change() const noexcept { return last_change_; }
  // Every slot p4rt::compile gives `group` a rule at: its member hosts and
  // its s-rule switches (a pod's spine s-rule at each of its physical
  // spines). Throws std::out_of_range for a group that is not live.
  RuleSlots rule_slots(GroupId group) const;

  // Serialized Elmo header a given sender's hypervisor would push.
  std::vector<std::uint8_t> header_for(GroupId group,
                                       topo::HostId sender) const;

 private:
  // `group` if it names a live group; throws std::out_of_range otherwise.
  std::size_t live_index(GroupId group) const;
  GroupState& state(GroupId group);
  // Throws std::out_of_range if a member's host is outside the topology and
  // std::invalid_argument if two members share a (host, vm) pair.
  void check_members(std::span<const Member> members) const;
  // The legacy-leaf mask encodes read: null when no leaf is legacy.
  const std::vector<bool>* legacy() const noexcept;
  // `hosts` (made sorted and unique) plus every physical s-rule slot whose
  // bitmap differs between `before` and `after`.
  RuleSlots change_set(std::vector<topo::HostId> hosts,
                       const GroupEncoding& before,
                       const GroupEncoding& after) const;
  // Records the change set of a join or leave of a VM on `host`, whose
  // receiving VMs (if `receives`) are already edited into g.tree; `crossed`
  // is whether the group crossed a failure before the change.
  void commit_membership(GroupState& g, topo::HostId host, bool receives,
                         bool crossed);
  // Whether a switch of `failures` lies on g's plane (route_failures).
  bool crosses(const GroupState& g, const topo::FailureSet& failures) const;
  // The change sets of a failure or restore that turned the failure set
  // `before` into failures_.
  FailureImpact failure_changes(const topo::FailureSet& before) const;

  const topo::ClosTopology* topo_;
  TreeEncoder encoder_;  // scheme picked by config.encoder
  SRuleSpace srule_space_;
  topo::FailureSet failures_;
  std::vector<bool> legacy_leaves_;
  std::vector<std::optional<GroupState>> groups_;
  std::size_t live_groups_ = 0;
  RuleSlots last_change_;
};

}  // namespace elmo
