#include "elmo/controller.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"

namespace elmo {
namespace {

// Controller telemetry (DESIGN.md §9): phase histograms feed the spans around
// create_groups, the counters the membership-churn entry points. Registered
// once on first use.
struct ControllerMetricIds {
  obs::MetricsRegistry::Id encode_seconds;
  obs::MetricsRegistry::Id merge_seconds;
  obs::MetricsRegistry::Id tree_seconds;
  obs::MetricsRegistry::Id groups_created;
  obs::MetricsRegistry::Id speculative_commits;
  obs::MetricsRegistry::Id serial_reencodes;
  obs::MetricsRegistry::Id joins;
  obs::MetricsRegistry::Id leaves;
  obs::MetricsRegistry::Id failures;
  ControllerMetricIds() {
    auto& reg = obs::MetricsRegistry::global();
    encode_seconds = reg.histogram(
        "elmo_controller_encode_seconds", obs::latency_bounds(),
        "Parallel speculative encode phase of create_groups, per batch");
    merge_seconds = reg.histogram(
        "elmo_controller_merge_seconds", obs::latency_bounds(),
        "Deterministic in-order merge phase of create_groups, per batch");
    tree_seconds = reg.histogram(
        "elmo_controller_tree_seconds", obs::latency_bounds(),
        "Multicast tree construction, per group");
    groups_created =
        reg.counter("elmo_controller_groups_created_total", "Groups created");
    speculative_commits = reg.counter(
        "elmo_controller_speculative_commits_total",
        "Bulk-encode groups whose speculative s-rule reservations committed");
    serial_reencodes = reg.counter(
        "elmo_controller_serial_reencodes_total",
        "Bulk-encode groups that fell back to a serial re-encode");
    joins = reg.counter("elmo_controller_joins_total", "Membership joins");
    leaves = reg.counter("elmo_controller_leaves_total", "Membership leaves");
    failures = reg.counter("elmo_controller_failures_total",
                           "Switch failures handled (spine or core)");
  }
};

ControllerMetricIds& controller_metric_ids() {
  static ControllerMetricIds ids;
  return ids;
}

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// Calls `changed(id)` for every logical switch whose s-rule was added,
// rewritten or removed between `before` and `after`.
template <typename F>
void diff_srules(const LayerEncoding& before, const LayerEncoding& after,
                 F&& changed) {
  std::map<std::uint32_t, const net::PortBitmap*> gone;
  for (const auto& [id, bitmap] : before.s_rules) gone.emplace(id, &bitmap);
  for (const auto& [id, bitmap] : after.s_rules) {
    const auto it = gone.find(id);
    if (it == gone.end()) {
      changed(id);
      continue;
    }
    if (!(*it->second == bitmap)) changed(id);
    gone.erase(it);
  }
  for (const auto& [id, bitmap] : gone) changed(id);
}

// Throws std::out_of_range unless `id` < `count`, before any state changes.
void check_range(std::uint32_t id, std::size_t count, const char* what) {
  if (id >= count) {
    throw std::out_of_range{std::string{"Controller: "} + what + " " +
                            std::to_string(id) + " is outside the topology"};
  }
}

std::vector<topo::HostId> member_hosts(const GroupState& g) {
  std::vector<topo::HostId> hosts;
  hosts.reserve(g.members.size());
  for (const auto& m : g.members) hosts.push_back(m.host);
  return hosts;
}

}  // namespace

void RuleSlots::merge(const RuleSlots& other) {
  hosts.insert(hosts.end(), other.hosts.begin(), other.hosts.end());
  srules.insert(srules.end(), other.srules.begin(), other.srules.end());
  sort_unique(hosts);
  sort_unique(srules);
}

std::vector<topo::HostId> GroupState::receiver_hosts() const {
  std::vector<topo::HostId> hosts;
  hosts.reserve(members.size());
  for (const auto& m : members) {
    if (can_receive(m.role)) hosts.push_back(m.host);
  }
  return hosts;
}

std::vector<topo::HostId> GroupState::sender_hosts() const {
  std::vector<topo::HostId> hosts;
  hosts.reserve(members.size());
  for (const auto& m : members) {
    if (can_send(m.role)) hosts.push_back(m.host);
  }
  return hosts;
}

Controller::Controller(const topo::ClosTopology& topology,
                       const EncoderConfig& config)
    : topo_{&topology},
      encoder_{make_encoder(topology, config)},
      srule_space_{topology, config.srule_capacity} {}

std::size_t Controller::live_index(GroupId group) const {
  if (group >= groups_.size() || !groups_[group]) {
    throw std::out_of_range{"Controller: unknown group " +
                            std::to_string(group)};
  }
  return group;
}

GroupState& Controller::state(GroupId group) {
  return *groups_[live_index(group)];
}

const GroupState& Controller::group(GroupId group) const {
  return *groups_[live_index(group)];
}

void Controller::check_members(std::span<const Member> members) const {
  std::vector<std::uint64_t> pairs;
  pairs.reserve(members.size());
  for (const auto& m : members) {
    check_range(m.host, topo_->num_hosts(), "member host");
    pairs.push_back(std::uint64_t{m.host} << 32 | m.vm);
  }
  std::sort(pairs.begin(), pairs.end());
  const auto dup = std::adjacent_find(pairs.begin(), pairs.end());
  if (dup != pairs.end()) {
    throw std::invalid_argument{
        "Controller: member (host " + std::to_string(*dup >> 32) + ", vm " +
        std::to_string(*dup & 0xffffffffu) + ") is listed twice"};
  }
}

bool Controller::has_group(GroupId group) const {
  return group < groups_.size() && groups_[group].has_value();
}

std::vector<GroupId> Controller::group_ids() const {
  std::vector<GroupId> ids;
  ids.reserve(live_groups_);
  for (GroupId id = 0; id < groups_.size(); ++id) {
    if (groups_[id]) ids.push_back(id);
  }
  return ids;
}

GroupEncoding Controller::reencode(GroupState& g) {
  if (g.tree) {
    encoder_->release(g.encoding, *g.tree, srule_space_);
  }
  const auto receivers = g.receiver_hosts();
  g.tree = std::make_unique<MulticastTree>(*topo_, receivers);
  return std::exchange(
      g.encoding,
      encoder_->encode(*g.tree, &srule_space_,
                       legacy_leaves_.empty() ? nullptr : &legacy_leaves_));
}

RuleSlots Controller::change_set(std::vector<topo::HostId> hosts,
                                 const GroupEncoding& before,
                                 const GroupEncoding& after) const {
  RuleSlots change;
  change.hosts = std::move(hosts);
  sort_unique(change.hosts);
  diff_srules(before.spine, after.spine, [&](std::uint32_t pod) {
    // A logical-spine s-rule lives in every physical spine of the pod.
    for (std::size_t plane = 0; plane < topo_->params().spines_per_pod;
         ++plane) {
      change.srules.emplace_back(topo::Layer::kSpine,
                                 topo_->spine_at(pod, plane));
    }
  });
  diff_srules(before.leaf, after.leaf, [&](std::uint32_t leaf) {
    change.srules.emplace_back(topo::Layer::kLeaf, leaf);
  });
  sort_unique(change.srules);
  return change;
}

void Controller::commit_membership(GroupState& g, topo::HostId host,
                                   bool receives, bool crossed) {
  std::vector<topo::HostId> hosts{host};
  if (crossed != crosses(g, failures_)) {
    // The change moved the group onto or off a failed switch's path: every
    // sender's header switches between multipath and explicit ports.
    const auto senders = g.sender_hosts();
    hosts.insert(hosts.end(), senders.begin(), senders.end());
  }
  if (receives) {
    // The receiver set changed, so the tree did: re-encode, diff s-rules,
    // and every sender's header template may have changed.
    const auto before = reencode(g);
    const auto senders = g.sender_hosts();
    hosts.insert(hosts.end(), senders.begin(), senders.end());
    last_change_ = change_set(std::move(hosts), before, g.encoding);
  } else {
    // A sender-only change touches nothing downstream: only that sender's
    // hypervisor is updated (paper §5.1.3a).
    last_change_ = change_set(std::move(hosts), {}, {});
  }
}

GroupId Controller::create_group(std::uint32_t tenant,
                                 std::span<const Member> members) {
  check_members(members);
  const auto id = static_cast<GroupId>(groups_.size());
  GroupState g;
  g.tenant = tenant;
  g.address = net::Ipv4Address::multicast_group(id);
  g.members.assign(members.begin(), members.end());
  auto& slot = groups_.emplace_back(std::move(g));
  ++live_groups_;
  ELMO_METRIC(reg.add(controller_metric_ids().groups_created));
  reencode(*slot);
  // Initial installation: every member hypervisor gets its flow rule;
  // senders additionally receive the header template (same update).
  last_change_ = rule_slots(id);
  return id;
}

RuleSlots Controller::rule_slots(GroupId group) const {
  const auto& g = this->group(group);
  return change_set(member_hosts(g), {}, g.encoding);
}

std::vector<GroupId> Controller::create_groups(
    std::span<const GroupSpec> specs, util::ThreadPool* pool,
    BulkLoadStats* stats) {
  using clock = std::chrono::steady_clock;
  std::vector<GroupId> ids;
  ids.reserve(specs.size());
  if (specs.empty()) return ids;
  for (const auto& spec : specs) check_members(spec.members);

  const auto base = groups_.size();
  groups_.resize(base + specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ids.push_back(static_cast<GroupId>(base + i));
  }

  // Per-group staging produced by the parallel phase. `denied` records any
  // speculative reservation refusal: the encoding then contains a
  // capacity-forced default (or an uncovered legacy leaf) the serial order
  // might not have produced, so the merge pass must not trust it.
  struct Staged {
    GroupEncoding encoding;
    bool denied = false;
  };
  std::vector<Staged> staged(specs.size());
  ConcurrentSRuleCounters speculative{srule_space_};
  const auto* legacy = legacy_leaves_.empty() ? nullptr : &legacy_leaves_;

  const auto encode_start = clock::now();
  auto encode_one = [&](std::size_t i) {
    const auto& spec = specs[i];
    auto& slot = groups_[base + i].emplace();
    slot.tenant = spec.tenant;
    slot.address =
        net::Ipv4Address::multicast_group(static_cast<GroupId>(base + i));
    slot.members.assign(spec.members.begin(), spec.members.end());
    {
      std::optional<obs::Span> tree_span;
      obs::arm_phase_span(tree_span, "controller:tree",
                          controller_metric_ids().tree_seconds);
      slot.tree =
          std::make_unique<MulticastTree>(*topo_, slot.receiver_hosts());
    }

    auto& st = staged[i];
    TreeEncoder::SRuleReservers reservers;
    reservers.leaf = [&speculative, &st](std::uint32_t leaf) {
      const bool ok = speculative.try_reserve_leaf(leaf);
      if (!ok) st.denied = true;
      return ok;
    };
    reservers.pod_spines = [&speculative, &st](std::uint32_t pod) {
      const bool ok = speculative.try_reserve_pod_spines(pod);
      if (!ok) st.denied = true;
      return ok;
    };
    st.encoding = encoder_->encode_with(*slot.tree, reservers, legacy);
  };
  if (pool != nullptr) {
    pool->parallel_for(0, specs.size(), encode_one);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) encode_one(i);
  }
  const auto merge_start = clock::now();

  // Deterministic merge: in group-id order, commit each speculative
  // encoding by replaying its reservations against the authoritative
  // space. Any disagreement (denial during the parallel phase, or a
  // reservation the serial order cannot grant) falls back to a plain
  // serial encode — at that point the space state equals what a pure
  // serial run would have seen for this group, so the fallback result is
  // the serial result.
  auto try_apply = [&](const GroupEncoding& enc) {
    std::size_t pods_done = 0;
    for (const auto& [pod, bitmap] : enc.spine.s_rules) {
      (void)bitmap;
      if (!srule_space_.try_reserve_pod_spines(pod)) break;
      ++pods_done;
    }
    std::size_t leaves_done = 0;
    if (pods_done == enc.spine.s_rules.size()) {
      for (const auto& [leaf, bitmap] : enc.leaf.s_rules) {
        (void)bitmap;
        if (!srule_space_.try_reserve_leaf(leaf)) break;
        ++leaves_done;
      }
      if (leaves_done == enc.leaf.s_rules.size()) return true;
    }
    for (std::size_t p = 0; p < pods_done; ++p) {
      srule_space_.release_pod_spines(enc.spine.s_rules[p].first);
    }
    for (std::size_t l = 0; l < leaves_done; ++l) {
      srule_space_.release_leaf(enc.leaf.s_rules[l].first);
    }
    return false;
  };

  std::size_t commits = 0;
  std::size_t reencodes = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto& g = *groups_[base + i];
    auto& st = staged[i];
    if (!st.denied && try_apply(st.encoding)) {
      g.encoding = std::move(st.encoding);
      ++commits;
    } else {
      g.encoding = encoder_->encode(*g.tree, &srule_space_, legacy);
      ++reencodes;
    }
    ++live_groups_;
  }
  // A bulk load is synced (stream::ControlPlane::sync), so it records an
  // empty change set: building the union of its groups' change sets in
  // this serial pass made the merge several times slower.
  last_change_ = {};
  const auto merge_end = clock::now();

  if (stats != nullptr) {
    stats->groups += specs.size();
    stats->speculative_commits += commits;
    stats->serial_reencodes += reencodes;
    stats->encode_seconds +=
        std::chrono::duration<double>(merge_start - encode_start).count();
    stats->merge_seconds +=
        std::chrono::duration<double>(merge_end - merge_start).count();
  }
  ELMO_METRIC({
    const auto& m = controller_metric_ids();
    reg.observe(m.encode_seconds, std::chrono::duration<double>(
                                      merge_start - encode_start)
                                      .count());
    reg.observe(m.merge_seconds,
                std::chrono::duration<double>(merge_end - merge_start).count());
    reg.add(m.groups_created, specs.size());
    reg.add(m.speculative_commits, commits);
    reg.add(m.serial_reencodes, reencodes);
  });
  return ids;
}

void Controller::remove_group(GroupId group) {
  auto& g = state(group);
  if (g.tree) encoder_->release(g.encoding, *g.tree, srule_space_);
  last_change_ = change_set(member_hosts(g), g.encoding, {});
  groups_[group].reset();
  --live_groups_;
}

void Controller::join(GroupId group, const Member& member) {
  auto& g = state(group);
  check_members(std::span{&member, 1});
  if (std::any_of(g.members.begin(), g.members.end(), [&](const Member& m) {
        return m.host == member.host && m.vm == member.vm;
      })) {
    throw std::invalid_argument{"Controller::join: (host " +
                                std::to_string(member.host) + ", vm " +
                                std::to_string(member.vm) +
                                ") is already a member"};
  }
  const bool crossed = crosses(g, failures_);
  g.members.push_back(member);
  ELMO_METRIC(reg.add(controller_metric_ids().joins));
  commit_membership(g, member.host, can_receive(member.role), crossed);
}

Member Controller::leave(GroupId group, topo::HostId host, std::uint32_t vm) {
  auto& g = state(group);
  const auto it =
      std::find_if(g.members.begin(), g.members.end(), [&](const Member& m) {
        return m.host == host && m.vm == vm;
      });
  if (it == g.members.end()) {
    throw std::invalid_argument{"Controller::leave: host not a member"};
  }
  const Member removed = *it;
  const bool crossed = crosses(g, failures_);
  g.members.erase(it);
  ELMO_METRIC(reg.add(controller_metric_ids().leaves));
  commit_membership(g, host, can_receive(removed.role), crossed);
  return removed;
}

bool Controller::crosses(const GroupState& g,
                         const topo::FailureSet& failures) const {
  if (failures.empty() || g.members.empty()) return false;
  const auto& t = *topo_;
  const auto plane = t.ecmp_plane(topo::group_hash(g.address));
  const auto on_plane = [&](topo::SpineId spine) {
    return t.plane_of_spine(spine) == plane;
  };
  const auto& spines = failures.failed_spines();
  const bool core_down =
      std::any_of(failures.failed_cores().begin(),
                  failures.failed_cores().end(), [&](topo::CoreId core) {
                    return t.plane_of_core(core) == plane;
                  });
  if (!core_down && std::none_of(spines.begin(), spines.end(), on_plane)) {
    return false;
  }
  const auto first_leaf = t.leaf_of_host(g.members.front().host);
  const auto first_pod = t.pod_of_leaf(first_leaf);
  bool multi_leaf = false;
  bool multi_pod = false;
  for (const auto& m : g.members) {
    const auto leaf = t.leaf_of_host(m.host);
    multi_leaf = multi_leaf || leaf != first_leaf;
    multi_pod = multi_pod || t.pod_of_leaf(leaf) != first_pod;
  }
  if (core_down && multi_pod) return true;
  if (!multi_leaf) return false;
  // A failed spine of the plane carries the group if a member is in its pod.
  return std::any_of(spines.begin(), spines.end(), [&](topo::SpineId spine) {
    return on_plane(spine) &&
           std::any_of(g.members.begin(), g.members.end(),
                       [&](const Member& m) {
                         return t.pod_of_host(m.host) == t.pod_of_spine(spine);
                       });
  });
}

const topo::FailureSet& Controller::route_failures(GroupId group) const {
  static const topo::FailureSet kNone;
  return crosses(this->group(group), failures_) ? failures_ : kNone;
}

std::size_t Controller::FailureImpact::hypervisor_updates() const noexcept {
  std::size_t updates = 0;
  for (const auto& [group, change] : changes) updates += change.hosts.size();
  return updates;
}

Controller::FailureImpact Controller::failure_changes(
    const topo::FailureSet& before) const {
  FailureImpact impact;
  for (GroupId id = 0; id < groups_.size(); ++id) {
    if (!groups_[id]) continue;
    const auto& g = *groups_[id];
    if (!crosses(g, before) && !crosses(g, failures_)) continue;
    // Re-issue upstream rules to every sender hypervisor.
    impact.changes.emplace_back(id, change_set(g.sender_hosts(), {}, {}));
  }
  return impact;
}

Controller::FailureImpact Controller::host_fail(topo::HostId host) {
  check_range(host, topo_->num_hosts(), "host");
  auto kept = std::move(last_change_);
  FailureImpact impact;
  for (GroupId id = 0; id < groups_.size(); ++id) {
    if (!groups_[id]) continue;
    // Collect first: leave invalidates member iteration.
    std::vector<std::uint32_t> vms;
    for (const auto& m : groups_[id]->members) {
      if (m.host == host) vms.push_back(m.vm);
    }
    if (vms.empty()) continue;
    auto& change = impact.changes.emplace_back(id, RuleSlots{}).second;
    for (const auto vm : vms) {
      leave(id, host, vm);
      change.merge(last_change_);
    }
  }
  last_change_ = std::move(kept);
  return impact;
}

Controller::FailureImpact Controller::fail_spine(topo::SpineId spine) {
  check_range(spine, topo_->num_spines(), "spine");
  const auto before = failures_;
  failures_.fail_spine(spine);
  ELMO_METRIC(reg.add(controller_metric_ids().failures));
  return failure_changes(before);
}

Controller::FailureImpact Controller::fail_core(topo::CoreId core) {
  check_range(core, topo_->num_cores(), "core");
  const auto before = failures_;
  failures_.fail_core(core);
  ELMO_METRIC(reg.add(controller_metric_ids().failures));
  return failure_changes(before);
}

Controller::FailureImpact Controller::restore_spine(topo::SpineId spine) {
  check_range(spine, topo_->num_spines(), "spine");
  const auto before = failures_;
  failures_.restore_spine(spine);
  return failure_changes(before);
}

Controller::FailureImpact Controller::restore_core(topo::CoreId core) {
  check_range(core, topo_->num_cores(), "core");
  const auto before = failures_;
  failures_.restore_core(core);
  return failure_changes(before);
}

std::vector<std::uint8_t> Controller::header_for(GroupId group,
                                                 topo::HostId sender) const {
  const auto& g = this->group(group);
  const auto route = g.tree->sender_route(sender, route_failures(group));
  return encoder_->codec().serialize(route.encoding, g.encoding);
}

}  // namespace elmo
