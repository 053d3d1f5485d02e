#include "elmo/controller.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/rng.h"

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

std::uint64_t group_flow_hash(GroupId group) {
  std::uint64_t s = 0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(group) << 1);
  return util::splitmix64(s);
}

// Per-layer s-rule maps for diffing (logical switch id -> bitmap).
std::map<std::uint32_t, const net::PortBitmap*> srule_map(
    const LayerEncoding& layer) {
  std::map<std::uint32_t, const net::PortBitmap*> out;
  for (const auto& [id, bitmap] : layer.s_rules) out.emplace(id, &bitmap);
  return out;
}

}  // namespace

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
                       const EncoderConfig& config, UpdateSink* sink)
    : topo_{&topology},
      encoder_{make_encoder(topology, config)},
      srule_space_{topology, config.srule_capacity},
      sink_{sink} {}

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

bool Controller::has_group(GroupId group) const {
  return group < groups_.size() && groups_[group].has_value();
}

void Controller::reencode(GroupState& g) {
  if (g.tree) {
    encoder_->release(g.encoding, *g.tree, srule_space_);
  }
  const auto receivers = g.receiver_hosts();
  g.tree = std::make_unique<MulticastTree>(*topo_, receivers);
  g.encoding = encoder_->encode(
      *g.tree, &srule_space_,
      legacy_leaves_.empty() ? nullptr : &legacy_leaves_);
}

void Controller::emit_srule_diffs(const GroupEncoding& before,
                                  const GroupEncoding& after) {
  if (sink_ == nullptr) return;
  auto diff = [&](const LayerEncoding& b, const LayerEncoding& a,
                  auto&& update) {
    const auto before_map = srule_map(b);
    const auto after_map = srule_map(a);
    for (const auto& [id, bitmap] : before_map) {
      const auto it = after_map.find(id);
      if (it == after_map.end() || !(*it->second == *bitmap)) update(id);
    }
    for (const auto& [id, bitmap] : after_map) {
      (void)bitmap;
      if (!before_map.contains(id)) update(id);
    }
  };
  diff(before.spine, after.spine, [&](std::uint32_t pod) {
    // A logical-spine s-rule lives in every physical spine of the pod.
    for (std::size_t plane = 0; plane < topo_->params().spines_per_pod;
         ++plane) {
      sink_->network_switch_update(topo::Layer::kSpine,
                                   topo_->spine_at(pod, plane));
    }
  });
  diff(before.leaf, after.leaf, [&](std::uint32_t leaf) {
    sink_->network_switch_update(topo::Layer::kLeaf, leaf);
  });
}

void Controller::notify_senders(const GroupState& g,
                                std::unordered_set<topo::HostId>& touched) {
  for (const auto& m : g.members) {
    if (can_send(m.role)) touched.insert(m.host);
  }
}

GroupId Controller::create_group(std::uint32_t tenant,
                                 std::span<const Member> members) {
  const auto id = static_cast<GroupId>(groups_.size());
  GroupState g;
  g.tenant = tenant;
  g.address = net::Ipv4Address::multicast_group(id);
  g.members.assign(members.begin(), members.end());
  groups_.emplace_back(std::move(g));
  ++live_groups_;
  ELMO_METRIC(reg.add(controller_metric_ids().groups_created));
  reencode(*groups_.back());

  if (sink_ != nullptr) {
    // Initial installation: every member hypervisor gets its flow rule;
    // senders additionally receive the header template (same update).
    std::unordered_set<topo::HostId> touched;
    for (const auto& m : groups_.back()->members) touched.insert(m.host);
    for (const auto host : touched) sink_->hypervisor_update(host);
    emit_srule_diffs(GroupEncoding{}, groups_.back()->encoding);
  }
  return id;
}

std::vector<GroupId> Controller::create_groups(
    std::span<const GroupSpec> specs, util::ThreadPool* pool,
    BulkLoadStats* stats) {
  using clock = std::chrono::steady_clock;
  std::vector<GroupId> ids;
  ids.reserve(specs.size());
  if (specs.empty()) return ids;

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
    if (sink_ != nullptr) {
      std::unordered_set<topo::HostId> touched;
      for (const auto& m : g.members) touched.insert(m.host);
      for (const auto host : touched) sink_->hypervisor_update(host);
      emit_srule_diffs(GroupEncoding{}, g.encoding);
    }
  }
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
  emit_srule_diffs(g.encoding, GroupEncoding{});
  if (sink_ != nullptr) {
    for (const auto& m : g.members) sink_->hypervisor_update(m.host);
  }
  groups_[group].reset();
  --live_groups_;
}

void Controller::join(GroupId group, const Member& member) {
  auto& g = state(group);
  const GroupEncoding before = g.encoding;
  const bool downstream_affected = can_receive(member.role);
  g.members.push_back(member);
  ELMO_METRIC(reg.add(controller_metric_ids().joins));

  std::unordered_set<topo::HostId> touched;
  touched.insert(member.host);  // flow rule (plus header template if sender)

  if (downstream_affected) {
    reencode(g);
    emit_srule_diffs(before, g.encoding);
    // The tree changed, so downstream p-rules and/or upstream rules of every
    // sender's header template changed.
    notify_senders(g, touched);
  }
  // A sender-only join changes nothing downstream: only the new sender's
  // hypervisor is updated (paper §5.1.3a).

  if (sink_ != nullptr) {
    for (const auto host : touched) sink_->hypervisor_update(host);
  }
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
  const bool downstream_affected = can_receive(it->role);
  g.members.erase(it);
  ELMO_METRIC(reg.add(controller_metric_ids().leaves));

  std::unordered_set<topo::HostId> touched;
  touched.insert(host);  // flow rule removal

  if (downstream_affected) {
    const GroupEncoding before = g.encoding;
    reencode(g);
    emit_srule_diffs(before, g.encoding);
    notify_senders(g, touched);
  }

  if (sink_ != nullptr) {
    for (const auto h : touched) sink_->hypervisor_update(h);
  }
  return removed;
}

Controller::FailureImpact Controller::fail_spine(topo::SpineId spine) {
  failures_.fail_spine(spine);
  ELMO_METRIC(reg.add(controller_metric_ids().failures));
  const auto pod = topo_->pod_of_spine(spine);
  const auto plane = topo_->plane_of_spine(spine);

  FailureImpact impact;
  for (GroupId id = 0; id < groups_.size(); ++id) {
    if (!groups_[id]) continue;
    const auto& g = *groups_[id];
    if (!g.tree || !g.tree->spans_multiple_leaves()) continue;
    // The group's flows traverse this spine if their multipath hash selects
    // its plane and the group touches its pod.
    if (group_flow_hash(id) % topo_->params().spines_per_pod != plane) {
      continue;
    }
    const bool touches_pod =
        std::any_of(g.members.begin(), g.members.end(), [&](const Member& m) {
          return topo_->pod_of_host(m.host) == pod;
        });
    if (!touches_pod) continue;
    ++impact.groups_affected;
    // Re-issue upstream rules (multipath off) to every sender hypervisor.
    std::unordered_set<topo::HostId> touched;
    notify_senders(g, touched);
    impact.hypervisor_updates += touched.size();
    if (sink_ != nullptr) {
      for (const auto host : touched) sink_->hypervisor_update(host);
    }
  }
  return impact;
}

Controller::FailureImpact Controller::fail_core(topo::CoreId core) {
  failures_.fail_core(core);
  ELMO_METRIC(reg.add(controller_metric_ids().failures));
  const auto plane = topo_->plane_of_core(core);

  FailureImpact impact;
  for (GroupId id = 0; id < groups_.size(); ++id) {
    if (!groups_[id]) continue;
    const auto& g = *groups_[id];
    if (!g.tree || !g.tree->spans_multiple_pods()) continue;
    if (group_flow_hash(id) % topo_->params().spines_per_pod != plane) {
      continue;
    }
    ++impact.groups_affected;
    std::unordered_set<topo::HostId> touched;
    notify_senders(g, touched);
    impact.hypervisor_updates += touched.size();
    if (sink_ != nullptr) {
      for (const auto host : touched) sink_->hypervisor_update(host);
    }
  }
  return impact;
}

void Controller::restore_spine(topo::SpineId spine) {
  failures_.restore_spine(spine);
}

void Controller::restore_core(topo::CoreId core) {
  failures_.restore_core(core);
}

std::vector<std::uint8_t> Controller::header_for(GroupId group,
                                                 topo::HostId sender) const {
  const auto& g = this->group(group);
  const auto route = g.tree->sender_route(sender, failures_);
  return encoder_->codec().serialize(route.encoding, g.encoding);
}

}  // namespace elmo
