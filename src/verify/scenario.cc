#include "verify/scenario.h"

#include <algorithm>
#include <unordered_set>

#include "util/rng.h"

namespace elmo::verify {

namespace {

// Small topologies: every structural regime (multi-pod, multi-plane,
// single-core-per-plane, odd sizes) at a size where a scenario runs in
// microseconds and a shrunk repro is readable.
topo::ClosParams topology_ladder(std::size_t rung) {
  switch (rung) {
    case 0:
      return topo::ClosParams{.pods = 2,
                              .leaves_per_pod = 2,
                              .spines_per_pod = 2,
                              .cores_per_plane = 1,
                              .hosts_per_leaf = 3};
    case 1:
      return topo::ClosParams::running_example();
    case 2:
      return topo::ClosParams{.pods = 3,
                              .leaves_per_pod = 3,
                              .spines_per_pod = 3,
                              .cores_per_plane = 2,
                              .hosts_per_leaf = 4};
    default:
      return topo::ClosParams::small_test();
  }
}

MemberRole random_role(util::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.6) return MemberRole::kBoth;
  if (roll < 0.85) return MemberRole::kReceiver;
  return MemberRole::kSender;
}

// Hosts that can source the group: a sending member whose leaf switch can
// parse Elmo headers. A sender behind a legacy leaf cannot reach past its
// rack (legacy s-rule bitmaps cover down ports only), so scenarios never
// source from one — mirroring the paper's deployment constraint (§7).
std::vector<topo::HostId> eligible_senders(const topo::ClosTopology& topo,
                                           const std::vector<bool>& legacy,
                                           const std::vector<Member>& members) {
  std::vector<topo::HostId> hosts;
  for (const auto& m : members) {
    if (!can_send(m.role)) continue;
    if (host_on_legacy_leaf(topo, legacy, m.host)) continue;
    if (std::find(hosts.begin(), hosts.end(), m.host) == hosts.end()) {
      hosts.push_back(m.host);
    }
  }
  return hosts;
}

}  // namespace

bool host_on_legacy_leaf(const topo::ClosTopology& topo,
                         const std::vector<bool>& legacy, topo::HostId host) {
  if (legacy.empty()) return false;
  const auto leaf = topo.leaf_of_host(host);
  return leaf < legacy.size() && legacy[leaf];
}

Scenario generate_scenario(std::uint64_t seed) {
  auto rng = util::Rng::stream(seed, 0);
  Scenario sc;
  sc.seed = seed;
  sc.params = topology_ladder(rng.index(4));
  const topo::ClosTopology topo{sc.params};

  // Encoder knobs: small Hmax/Kmax so the p-rule/s-rule/default interplay
  // triggers even on tiny fabrics; sometimes exhaust Fmax (forcing default
  // rules and legacy denials) or squeeze the header budget.
  sc.config.hmax_spine = 1 + rng.index(3);
  sc.config.hmax_leaf_override = 1 + rng.index(4);
  sc.config.kmax = 1 + rng.index(2);
  sc.config.kmax_spine = 1 + rng.index(3);
  sc.config.redundancy_limit = rng.index(3);
  if (rng.bernoulli(0.35)) sc.config.srule_capacity = rng.index(4);
  if (rng.bernoulli(0.25)) {
    sc.config.header_budget_bytes = 64 + rng.index(128);
  }

  if (rng.bernoulli(0.35)) {
    sc.legacy_leaves.assign(topo.num_leaves(), false);
    for (std::size_t l = 1; l < sc.legacy_leaves.size(); ++l) {
      sc.legacy_leaves[l] = rng.bernoulli(0.3);
    }
    // Leaf 0 stays upgraded so every group can keep at least one sender.
  }

  const std::size_t num_groups = 1 + rng.index(4);
  for (std::size_t gi = 0; gi < num_groups; ++gi) {
    ScenarioGroup grp;
    grp.tenant = static_cast<std::uint32_t>(100 + gi);
    const std::size_t size =
        2 + rng.index(std::min<std::size_t>(10, topo.num_hosts()));
    const bool colocate = rng.bernoulli(0.5);
    for (std::size_t i = 0; i < size; ++i) {
      topo::HostId host;
      if (colocate && !grp.members.empty() && rng.bernoulli(0.35)) {
        host = grp.members[rng.index(grp.members.size())].host;
      } else {
        host = static_cast<topo::HostId>(rng.index(topo.num_hosts()));
      }
      grp.members.push_back(Member{host, static_cast<std::uint32_t>(i),
                                   random_role(rng)});
    }
    if (eligible_senders(topo, sc.legacy_leaves, grp.members).empty()) {
      // Force one sender under leaf 0 (never legacy, see above).
      grp.members.front() =
          Member{topo.host_at(0, rng.index(topo.leaf_down_ports())),
                 grp.members.front().vm, MemberRole::kBoth};
    }
    sc.groups.push_back(std::move(grp));
  }

  // Event script. Generated against a membership/failure mirror so every
  // event is concrete and valid; the runner re-derives nothing from the rng.
  std::vector<std::vector<Member>> mirror;
  std::vector<std::uint32_t> next_vm;
  for (const auto& g : sc.groups) {
    mirror.push_back(g.members);
    std::uint32_t max_vm = 0;
    for (const auto& m : g.members) max_vm = std::max(max_vm, m.vm);
    next_vm.push_back(max_vm + 1);
  }
  std::vector<bool> spine_down(topo.num_spines(), false);
  std::vector<bool> core_down(topo.num_cores(), false);
  auto any_down = [](const std::vector<bool>& v) {
    return std::find(v.begin(), v.end(), true) != v.end();
  };

  auto emit_send = [&](std::size_t gi) -> bool {
    const auto senders =
        eligible_senders(topo, sc.legacy_leaves, mirror[gi]);
    if (senders.empty()) return false;
    Event ev;
    ev.kind = EventKind::kSend;
    ev.group_index = gi;
    ev.sender = senders[rng.index(senders.size())];
    sc.events.push_back(ev);
    return true;
  };

  const std::size_t num_events = 8 + rng.index(24);
  for (std::size_t e = 0; e < num_events; ++e) {
    const std::size_t gi = rng.index(sc.groups.size());
    const double roll = rng.uniform();
    if (roll < 0.18) {  // join
      Event ev;
      ev.kind = EventKind::kJoin;
      ev.group_index = gi;
      topo::HostId host;
      if (rng.bernoulli(0.35) && !mirror[gi].empty()) {
        host = mirror[gi][rng.index(mirror[gi].size())].host;  // co-locate
      } else {
        host = static_cast<topo::HostId>(rng.index(topo.num_hosts()));
      }
      ev.member = Member{host, next_vm[gi]++, random_role(rng)};
      mirror[gi].push_back(ev.member);
      sc.events.push_back(ev);
    } else if (roll < 0.36) {  // leave
      if (mirror[gi].size() < 2) continue;
      const std::size_t victim = rng.index(mirror[gi].size());
      Event ev;
      ev.kind = EventKind::kLeave;
      ev.group_index = gi;
      ev.member = mirror[gi][victim];
      mirror[gi].erase(mirror[gi].begin() + victim);
      sc.events.push_back(ev);
    } else if (roll < 0.46) {  // fail a switch
      Event ev;
      if (rng.bernoulli(0.5)) {
        const auto id = static_cast<std::uint32_t>(rng.index(topo.num_spines()));
        if (spine_down[id]) continue;
        spine_down[id] = true;
        ev.kind = EventKind::kFailSpine;
        ev.switch_id = id;
      } else {
        const auto id = static_cast<std::uint32_t>(rng.index(topo.num_cores()));
        if (core_down[id]) continue;
        core_down[id] = true;
        ev.kind = EventKind::kFailCore;
        ev.switch_id = id;
      }
      sc.events.push_back(ev);
    } else if (roll < 0.54 && (any_down(spine_down) || any_down(core_down))) {
      Event ev;  // restore a failed switch
      std::vector<std::pair<bool, std::uint32_t>> failed;  // (is_spine, id)
      for (std::size_t i = 0; i < spine_down.size(); ++i) {
        if (spine_down[i])
          failed.emplace_back(true, static_cast<std::uint32_t>(i));
      }
      for (std::size_t i = 0; i < core_down.size(); ++i) {
        if (core_down[i])
          failed.emplace_back(false, static_cast<std::uint32_t>(i));
      }
      const auto [is_spine, id] = failed[rng.index(failed.size())];
      ev.kind = is_spine ? EventKind::kRestoreSpine : EventKind::kRestoreCore;
      ev.switch_id = id;
      (is_spine ? spine_down : core_down)[id] = false;
      sc.events.push_back(ev);
    } else {
      emit_send(gi);
    }
  }

  // Final sweep: at least one send per group so latent divergences surface
  // even when the random interleaving skipped a group.
  for (std::size_t gi = 0; gi < sc.groups.size(); ++gi) {
    emit_send(gi);
  }

  // Encoder kind, drawn last so every earlier draw (and therefore every
  // historical seed -> scenario mapping) is unchanged. All kinds must pass
  // the same delivery oracle.
  sc.config.encoder = kAllEncoderKinds[rng.index(std::size(kAllEncoderKinds))];
  if (sc.config.encoder == EncoderKind::kP3fa) {
    sc.config.p3fa_egress_classes = 1 + rng.index(4);
  }
  return sc;
}

void append_churn_events(Scenario& scenario, std::size_t count) {
  if (scenario.groups.empty() || count == 0) return;
  const topo::ClosTopology topo{scenario.params};
  // Stream 1 of the salted seed: stream 0 is generate_scenario's, so
  // appending never perturbs the base seed -> scenario mapping. The salt is
  // arbitrary but fixed: it pins every recorded churn campaign's script.
  constexpr std::uint64_t kChurnSalt = 0xc4;
  auto rng = util::Rng::stream(scenario.seed ^ kChurnSalt, 1);

  // Replay the existing script so appended churn starts from the membership
  // state the run will actually be in when it reaches these events.
  std::vector<std::vector<Member>> mirror;
  std::vector<std::uint32_t> next_vm(scenario.groups.size(), 0);
  for (const auto& g : scenario.groups) mirror.push_back(g.members);
  for (const auto& ev : scenario.events) {
    if (ev.kind == EventKind::kHostFail) {
      for (auto& members : mirror) {
        members.erase(std::remove_if(members.begin(), members.end(),
                                     [&](const Member& m) {
                                       return m.host == ev.member.host;
                                     }),
                      members.end());
      }
      continue;
    }
    if (ev.group_index >= mirror.size()) continue;
    auto& members = mirror[ev.group_index];
    if (ev.kind == EventKind::kJoin) {
      members.push_back(ev.member);
    } else if (ev.kind == EventKind::kLeave) {
      const auto it = std::find_if(
          members.begin(), members.end(), [&](const Member& m) {
            return m.host == ev.member.host && m.vm == ev.member.vm;
          });
      if (it != members.end()) members.erase(it);
    }
  }
  for (std::size_t gi = 0; gi < mirror.size(); ++gi) {
    for (const auto& m : mirror[gi]) {
      next_vm[gi] = std::max(next_vm[gi], m.vm + 1);
    }
  }

  auto emit_send = [&](std::size_t gi) {
    const auto senders =
        eligible_senders(topo, scenario.legacy_leaves, mirror[gi]);
    if (senders.empty()) return;
    Event ev;
    ev.kind = EventKind::kSend;
    ev.group_index = gi;
    ev.sender = senders[rng.index(senders.size())];
    scenario.events.push_back(ev);
  };

  for (std::size_t e = 0; e < count; ++e) {
    const std::size_t gi = rng.index(scenario.groups.size());
    const double roll = rng.uniform();
    // Leaves need at least two members to keep the group alive (mirroring
    // generate_scenario); an infeasible leave degrades into a join so the
    // script always grows to the requested length.
    if (roll < 0.44 || mirror[gi].size() < 2) {  // join
      Event ev;
      ev.kind = EventKind::kJoin;
      ev.group_index = gi;
      topo::HostId host;
      if (rng.bernoulli(0.35) && !mirror[gi].empty()) {
        host = mirror[gi][rng.index(mirror[gi].size())].host;  // co-locate
      } else {
        host = static_cast<topo::HostId>(rng.index(topo.num_hosts()));
      }
      ev.member = Member{host, next_vm[gi]++, random_role(rng)};
      mirror[gi].push_back(ev.member);
      scenario.events.push_back(ev);
    } else if (roll < 0.86) {  // leave
      const std::size_t victim = rng.index(mirror[gi].size());
      Event ev;
      ev.kind = EventKind::kLeave;
      ev.group_index = gi;
      ev.member = mirror[gi][victim];
      mirror[gi].erase(mirror[gi].begin() + victim);
      scenario.events.push_back(ev);
    } else if (roll < 0.9) {  // host fail: every VM on one host leaves at once
      const std::size_t victim = rng.index(mirror[gi].size());
      const topo::HostId host = mirror[gi][victim].host;
      // Viable only if every group with members on `host` survives it; an
      // infeasible host-fail degrades into a plain leave of the drawn
      // member so the script still grows to the requested length.
      bool viable = true;
      for (const auto& members : mirror) {
        const auto on_host = static_cast<std::size_t>(
            std::count_if(members.begin(), members.end(),
                          [&](const Member& m) { return m.host == host; }));
        if (on_host > 0 && on_host == members.size()) {
          viable = false;
          break;
        }
      }
      Event ev;
      ev.group_index = gi;
      if (viable) {
        ev.kind = EventKind::kHostFail;
        ev.member = Member{host, 0, MemberRole::kBoth};
        for (auto& members : mirror) {
          members.erase(std::remove_if(members.begin(), members.end(),
                                       [&](const Member& m) {
                                         return m.host == host;
                                       }),
                        members.end());
        }
      } else {
        ev.kind = EventKind::kLeave;
        ev.member = mirror[gi][victim];
        mirror[gi].erase(mirror[gi].begin() + victim);
      }
      scenario.events.push_back(ev);
    } else {  // periodic send: divergences surface mid-churn, not only at end
      emit_send(gi);
    }
  }

  // Closing sweep: one send per group over the post-churn membership.
  for (std::size_t gi = 0; gi < scenario.groups.size(); ++gi) {
    emit_send(gi);
  }
}

void normalize(Scenario& scenario) {
  const topo::ClosTopology topo{scenario.params};
  if (!scenario.legacy_leaves.empty()) {
    scenario.legacy_leaves.resize(topo.num_leaves(), false);
  }
  for (auto& g : scenario.groups) {
    for (auto& m : g.members) {
      m.host = static_cast<topo::HostId>(m.host % topo.num_hosts());
    }
  }

  std::vector<std::vector<Member>> mirror;
  for (const auto& g : scenario.groups) mirror.push_back(g.members);
  std::vector<bool> spine_down(topo.num_spines(), false);
  std::vector<bool> core_down(topo.num_cores(), false);

  auto find_member = [](const std::vector<Member>& members, topo::HostId host,
                        std::uint32_t vm) {
    return std::find_if(members.begin(), members.end(), [&](const Member& m) {
      return m.host == host && m.vm == vm;
    });
  };

  std::vector<Event> kept;
  for (auto ev : scenario.events) {
    switch (ev.kind) {
      case EventKind::kJoin: {
        if (ev.group_index >= mirror.size()) continue;
        auto& members = mirror[ev.group_index];
        ev.member.host =
            static_cast<topo::HostId>(ev.member.host % topo.num_hosts());
        if (find_member(members, ev.member.host, ev.member.vm) !=
            members.end()) {
          continue;
        }
        members.push_back(ev.member);
        break;
      }
      case EventKind::kLeave: {
        if (ev.group_index >= mirror.size()) continue;
        auto& members = mirror[ev.group_index];
        ev.member.host =
            static_cast<topo::HostId>(ev.member.host % topo.num_hosts());
        const auto it = find_member(members, ev.member.host, ev.member.vm);
        if (it == members.end() || members.size() < 2) continue;
        ev.member = *it;  // keep the role consistent with the mirror
        members.erase(it);
        break;
      }
      case EventKind::kFailSpine: {
        ev.switch_id =
            static_cast<std::uint32_t>(ev.switch_id % topo.num_spines());
        if (spine_down[ev.switch_id]) continue;
        spine_down[ev.switch_id] = true;
        break;
      }
      case EventKind::kFailCore: {
        ev.switch_id =
            static_cast<std::uint32_t>(ev.switch_id % topo.num_cores());
        if (core_down[ev.switch_id]) continue;
        core_down[ev.switch_id] = true;
        break;
      }
      case EventKind::kRestoreSpine: {
        ev.switch_id =
            static_cast<std::uint32_t>(ev.switch_id % topo.num_spines());
        if (!spine_down[ev.switch_id]) continue;
        spine_down[ev.switch_id] = false;
        break;
      }
      case EventKind::kRestoreCore: {
        ev.switch_id =
            static_cast<std::uint32_t>(ev.switch_id % topo.num_cores());
        if (!core_down[ev.switch_id]) continue;
        core_down[ev.switch_id] = false;
        break;
      }
      case EventKind::kHostFail: {
        ev.member.host =
            static_cast<topo::HostId>(ev.member.host % topo.num_hosts());
        const topo::HostId host = ev.member.host;
        bool touches = false;
        bool viable = true;
        for (const auto& members : mirror) {
          const auto on_host = static_cast<std::size_t>(
              std::count_if(members.begin(), members.end(),
                            [&](const Member& m) { return m.host == host; }));
          touches = touches || on_host > 0;
          if (on_host > 0 && on_host == members.size()) viable = false;
        }
        if (!touches || !viable) continue;  // no-op or would empty a group
        for (auto& members : mirror) {
          members.erase(std::remove_if(members.begin(), members.end(),
                                       [&](const Member& m) {
                                         return m.host == host;
                                       }),
                        members.end());
        }
        break;
      }
      case EventKind::kSend: {
        if (ev.group_index >= mirror.size()) continue;
        ev.sender = static_cast<topo::HostId>(ev.sender % topo.num_hosts());
        const auto senders = eligible_senders(topo, scenario.legacy_leaves,
                                              mirror[ev.group_index]);
        if (std::find(senders.begin(), senders.end(), ev.sender) ==
            senders.end()) {
          continue;
        }
        break;
      }
    }
    kept.push_back(ev);
  }
  scenario.events = std::move(kept);
}

}  // namespace elmo::verify
