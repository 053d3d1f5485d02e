#include "elmo/controller.h"

#include <algorithm>
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

// Calls `changed(id)`, ascending, for every logical switch whose s-rule was
// added, rewritten or removed between `before` and `after` (a layer lists
// each switch once).
template <typename F>
void diff_srules(const LayerEncoding& before, const LayerEncoding& after,
                 F&& changed) {
  if (before.s_rules == after.s_rules) return;
  using Rule = std::pair<std::uint32_t, const net::PortBitmap*>;
  const auto by_id = [](const LayerEncoding& layer) {
    std::vector<Rule> rules;
    rules.reserve(layer.s_rules.size());
    for (const auto& [id, bitmap] : layer.s_rules) rules.emplace_back(id, &bitmap);
    std::sort(rules.begin(), rules.end(), [](const Rule& a, const Rule& b) {
      return a.first < b.first;
    });
    return rules;
  };
  const auto old_rules = by_id(before);
  const auto new_rules = by_id(after);
  auto o = old_rules.begin();
  auto n = new_rules.begin();
  while (o != old_rules.end() || n != new_rules.end()) {
    if (n == new_rules.end() || (o != old_rules.end() && o->first < n->first)) {
      changed((o++)->first);
    } else if (o == old_rules.end() || n->first < o->first) {
      changed((n++)->first);
    } else {
      if (!(*o->second == *n->second)) changed(n->first);
      ++o;
      ++n;
    }
  }
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
      encoder_{topology, config},
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

const std::vector<bool>* Controller::legacy() const noexcept {
  return legacy_leaves_.empty() ? nullptr : &legacy_leaves_;
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
    encoder_.release(g.encoding, srule_space_);
    const auto before = std::exchange(
        g.encoding, encoder_.encode(*g.tree, &srule_space_, legacy()));
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
  g.tree = std::make_unique<MulticastTree>(*topo_, g.receiver_hosts());
  g.encoding = encoder_.encode(*g.tree, &srule_space_, legacy());
  groups_.emplace_back(std::move(g));
  ++live_groups_;
  ELMO_METRIC(reg.add(controller_metric_ids().groups_created));
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
  std::vector<GroupId> ids;
  ids.reserve(specs.size());
  if (specs.empty()) return ids;
  for (const auto& spec : specs) check_members(spec.members);

  const auto base = groups_.size();
  groups_.resize(base + specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ids.push_back(static_cast<GroupId>(base + i));
  }

  BulkLoadStats batch;
  auto encodings = encoder_.encode_batch(
      specs.size(),
      [&](std::size_t i) -> const MulticastTree& {
        const auto& spec = specs[i];
        auto& slot = groups_[base + i].emplace();
        slot.tenant = spec.tenant;
        slot.address =
            net::Ipv4Address::multicast_group(static_cast<GroupId>(base + i));
        slot.members.assign(spec.members.begin(), spec.members.end());
        std::optional<obs::Span> tree_span;
        obs::arm_phase_span(tree_span, "controller:tree",
                            controller_metric_ids().tree_seconds);
        slot.tree =
            std::make_unique<MulticastTree>(*topo_, slot.receiver_hosts());
        return *slot.tree;
      },
      srule_space_, pool, legacy(), &batch);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    groups_[base + i]->encoding = std::move(encodings[i]);
  }
  live_groups_ += specs.size();
  // A bulk load is synced (stream::ControlPlane::sync), so it records an
  // empty change set: building the union of its groups' change sets in
  // this serial pass made the merge several times slower.
  last_change_ = {};

  if (stats != nullptr) {
    stats->groups += batch.groups;
    stats->speculative_commits += batch.speculative_commits;
    stats->serial_reencodes += batch.serial_reencodes;
    stats->encode_seconds += batch.encode_seconds;
    stats->merge_seconds += batch.merge_seconds;
  }
  ELMO_METRIC({
    const auto& m = controller_metric_ids();
    reg.observe(m.encode_seconds, batch.encode_seconds);
    reg.observe(m.merge_seconds, batch.merge_seconds);
    reg.add(m.groups_created, specs.size());
    reg.add(m.speculative_commits, batch.speculative_commits);
    reg.add(m.serial_reencodes, batch.serial_reencodes);
  });
  return ids;
}

void Controller::remove_group(GroupId group) {
  auto& g = state(group);
  encoder_.release(g.encoding, srule_space_);
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
  const bool receives = can_receive(member.role);
  if (receives) g.tree->add_host(member.host);
  commit_membership(g, member.host, receives, crossed);
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
  const bool receives = can_receive(removed.role);
  // A host stays in the tree while it still has a receiving VM.
  if (receives &&
      std::none_of(g.members.begin(), g.members.end(), [&](const Member& m) {
        return m.host == host && can_receive(m.role);
      })) {
    g.tree->remove_host(host);
  }
  commit_membership(g, host, receives, crossed);
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
  const auto& codec = encoder_.codec();
  return RouteContext{*g.tree, route_failures(group)}.header(
      sender, codec, codec.serialize_shared(g.encoding));
}

}  // namespace elmo
