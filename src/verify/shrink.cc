#include "verify/shrink.h"

#include <limits>
#include <sstream>
#include <vector>

#include "elmo/tree_encoder.h"

namespace elmo::verify {

namespace {

// Smallest-first rungs the topology shrink pass tries to re-map onto.
const std::vector<topo::ClosParams>& shrink_ladder() {
  static const std::vector<topo::ClosParams> ladder = {
      topo::ClosParams{.pods = 1,
                       .leaves_per_pod = 2,
                       .spines_per_pod = 1,
                       .cores_per_plane = 1,
                       .hosts_per_leaf = 2},
      topo::ClosParams{.pods = 2,
                       .leaves_per_pod = 1,
                       .spines_per_pod = 1,
                       .cores_per_plane = 1,
                       .hosts_per_leaf = 2},
      topo::ClosParams{.pods = 2,
                       .leaves_per_pod = 2,
                       .spines_per_pod = 1,
                       .cores_per_plane = 1,
                       .hosts_per_leaf = 2},
      topo::ClosParams{.pods = 2,
                       .leaves_per_pod = 2,
                       .spines_per_pod = 2,
                       .cores_per_plane = 1,
                       .hosts_per_leaf = 2},
      topo::ClosParams::running_example(),
  };
  return ladder;
}

std::size_t hosts_of(const topo::ClosParams& p) {
  return p.pods * p.leaves_per_pod * p.hosts_per_leaf;
}

class Shrinker {
 public:
  Shrinker(Mutation mutation, std::size_t budget)
      : mutation_{mutation}, budget_{budget} {}

  Scenario minimize(Scenario best) {
    normalize(best);
    if (!fails(best)) return best;
    bool progress = true;
    while (progress && budget_ > 0) {
      progress = false;
      progress |= drop_groups(best);
      progress |= drop_events(best);
      progress |= drop_members(best);
      progress |= shrink_topology(best);
    }
    return best;
  }

 private:
  bool fails(const Scenario& candidate) {
    if (budget_ == 0) return false;
    --budget_;
    Scenario copy = candidate;
    normalize(copy);
    return !run_scenario(copy, mutation_).ok;
  }

  bool accept(Scenario& best, Scenario candidate) {
    normalize(candidate);
    if (!fails(candidate)) return false;
    best = std::move(candidate);
    return true;
  }

  bool drop_groups(Scenario& best) {
    bool progress = false;
    for (std::size_t gi = best.groups.size(); gi-- > 0;) {
      if (best.groups.size() <= 1) break;
      Scenario candidate = best;
      candidate.groups.erase(candidate.groups.begin() + gi);
      std::vector<Event> events;
      for (auto ev : candidate.events) {
        const bool grouped = ev.kind == EventKind::kJoin ||
                             ev.kind == EventKind::kLeave ||
                             ev.kind == EventKind::kSend;
        if (grouped) {
          if (ev.group_index == gi) continue;
          if (ev.group_index > gi) --ev.group_index;
        }
        events.push_back(ev);
      }
      candidate.events = std::move(events);
      progress |= accept(best, std::move(candidate));
    }
    return progress;
  }

  bool drop_events(Scenario& best) {
    bool progress = false;
    for (std::size_t ei = best.events.size(); ei-- > 0;) {
      Scenario candidate = best;
      candidate.events.erase(candidate.events.begin() + ei);
      progress |= accept(best, std::move(candidate));
    }
    return progress;
  }

  bool drop_members(Scenario& best) {
    bool progress = false;
    for (std::size_t gi = 0; gi < best.groups.size(); ++gi) {
      for (std::size_t mi = best.groups[gi].members.size(); mi-- > 0;) {
        if (best.groups[gi].members.size() <= 1) break;
        Scenario candidate = best;
        candidate.groups[gi].members.erase(
            candidate.groups[gi].members.begin() + mi);
        progress |= accept(best, std::move(candidate));
      }
    }
    return progress;
  }

  bool shrink_topology(Scenario& best) {
    bool progress = false;
    for (const auto& params : shrink_ladder()) {
      if (hosts_of(params) >= hosts_of(best.params)) continue;
      Scenario candidate = best;
      candidate.params = params;  // normalize() re-maps hosts & switch ids
      if (accept(best, std::move(candidate))) {
        progress = true;
        break;  // restart deletion passes on the smaller fabric
      }
    }
    return progress;
  }

  Mutation mutation_;
  std::size_t budget_;
};

const char* role_token(MemberRole role) {
  switch (role) {
    case MemberRole::kSender:
      return "elmo::MemberRole::kSender";
    case MemberRole::kReceiver:
      return "elmo::MemberRole::kReceiver";
    case MemberRole::kBoth:
      return "elmo::MemberRole::kBoth";
  }
  return "elmo::MemberRole::kBoth";
}

const char* kind_token(EventKind kind) {
  switch (kind) {
    case EventKind::kJoin:
      return "elmo::verify::EventKind::kJoin";
    case EventKind::kLeave:
      return "elmo::verify::EventKind::kLeave";
    case EventKind::kFailSpine:
      return "elmo::verify::EventKind::kFailSpine";
    case EventKind::kFailCore:
      return "elmo::verify::EventKind::kFailCore";
    case EventKind::kRestoreSpine:
      return "elmo::verify::EventKind::kRestoreSpine";
    case EventKind::kRestoreCore:
      return "elmo::verify::EventKind::kRestoreCore";
    case EventKind::kSend:
      return "elmo::verify::EventKind::kSend";
    case EventKind::kHostFail:
      return "elmo::verify::EventKind::kHostFail";
  }
  return "elmo::verify::EventKind::kSend";
}

void emit_member(std::ostringstream& out, const Member& m) {
  out << "{" << m.host << ", " << m.vm << ", " << role_token(m.role) << "}";
}

}  // namespace

Scenario shrink(const Scenario& failing, Mutation mutation,
                std::size_t budget) {
  return Shrinker{mutation, budget}.minimize(failing);
}

std::string to_fixture(const Scenario& scenario) {
  std::ostringstream out;
  out << "// Auto-generated by tools/fuzz_pipeline from seed " << scenario.seed
      << ".\n";
  out << "TEST(FuzzRepro, Seed" << scenario.seed << ") {\n";
  out << "  elmo::verify::Scenario sc;\n";
  out << "  sc.seed = " << scenario.seed << "ULL;\n";
  const auto& p = scenario.params;
  out << "  sc.params = {.pods = " << p.pods
      << ", .leaves_per_pod = " << p.leaves_per_pod
      << ", .spines_per_pod = " << p.spines_per_pod
      << ", .cores_per_plane = " << p.cores_per_plane
      << ", .hosts_per_leaf = " << p.hosts_per_leaf << "};\n";
  const auto& c = scenario.config;
  out << "  sc.config.header_budget_bytes = " << c.header_budget_bytes << ";\n";
  out << "  sc.config.hmax_spine = " << c.hmax_spine << ";\n";
  out << "  sc.config.hmax_leaf_override = " << c.hmax_leaf_override << ";\n";
  out << "  sc.config.kmax = " << c.kmax << ";\n";
  out << "  sc.config.kmax_spine = " << c.kmax_spine << ";\n";
  out << "  sc.config.redundancy_limit = " << c.redundancy_limit << ";\n";
  if (c.srule_capacity != std::numeric_limits<std::size_t>::max()) {
    out << "  sc.config.srule_capacity = " << c.srule_capacity << ";\n";
  }
  if (c.encoder != EncoderConfig{}.encoder) {
    out << "  sc.config.encoder = elmo::parse_encoder_kind(\""
        << to_string(c.encoder) << "\");\n";
  }
  if (c.p3fa_egress_classes != EncoderConfig{}.p3fa_egress_classes) {
    out << "  sc.config.p3fa_egress_classes = " << c.p3fa_egress_classes
        << ";\n";
  }
  if (!scenario.legacy_leaves.empty()) {
    out << "  sc.legacy_leaves = {";
    for (std::size_t i = 0; i < scenario.legacy_leaves.size(); ++i) {
      out << (i ? ", " : "") << (scenario.legacy_leaves[i] ? "true" : "false");
    }
    out << "};\n";
  }
  out << "  sc.groups = {\n";
  for (const auto& g : scenario.groups) {
    out << "      {" << g.tenant << ", {";
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      if (i) out << ", ";
      emit_member(out, g.members[i]);
    }
    out << "}},\n";
  }
  out << "  };\n";
  out << "  sc.events = {\n";
  for (const auto& ev : scenario.events) {
    out << "      {" << kind_token(ev.kind) << ", " << ev.group_index << ", ";
    emit_member(out, ev.member);
    out << ", " << ev.switch_id << ", " << ev.sender << "},\n";
  }
  out << "  };\n";
  out << "  const auto report = elmo::verify::run_scenario(sc);\n";
  out << "  EXPECT_TRUE(report.ok) << report.failure;\n";
  out << "}\n";
  return out.str();
}

}  // namespace elmo::verify
