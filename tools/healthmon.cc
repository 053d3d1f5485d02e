// Gray-failure health monitor driver ("is my fabric healthy?").
//
// Replays the membership of one fuzz scenario into a controller + fabric,
// then runs a windowed send loop while sampling the fabric into a
// TimeSeriesStore and ticking the HealthMonitor once per window
// (DESIGN.md §14). Mid-run it silently injects a gray failure — the
// controller and oracle are NOT told, exactly like a real partial failure —
// and prints the incident timeline the detectors reconstruct from counter
// deltas alone. Newly opened incidents get the rendered decision tree of
// the window's last send attached (verify::explain_send), so the report
// carries both the statistical evidence and one concrete affected send.
//
// Flags (KEY=VALUE, --key=value, or ELMO_<KEY> env):
//   --seed=N          scenario seed to replay (default 1)
//   --loss_pct=P      inject global random loss of P percent (default 0)
//   --fail_link=L:S   black-hole both directions of the leaf L <-> spine S
//                     link (100% directed loss); exits 2 if there is no
//                     such link
//   --fail_switch=W   silently down a switch: spine:<id>, core:<id>,
//                     spine:all, or core:all
//   --windows=N       sampling windows to run (default 12)
//   --sends=N         multicast sends per window (default 16)
//   --inject_at=N     window index at which the failure engages (default 3)
//   --expect=CLASS    exit nonzero unless an incident of CLASS was raised;
//                     "none" asserts a fully clean run (CI smoke contract)
//   --json=PATH       also write the incident report as JSON (the schema
//                     scripts/lint_metrics.py --incidents checks)
//   --verbose=1       per-window progress lines
//
// Example: tools/healthmon --seed=7 --loss_pct=2 --expect=link-loss
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "elmo/controller.h"
#include "elmo/stream.h"
#include "obs/health.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "sim/fabric.h"
#include "util/flags.h"
#include "verify/explain.h"
#include "verify/oracle.h"
#include "verify/scenario.h"

namespace {

using namespace elmo;

struct Injection {
  double loss_pct = 0;
  bool has_link = false;
  topo::LeafId link_leaf = 0;
  topo::SpineId link_spine = 0;
  enum class SwitchKind { kNone, kSpine, kCore } switch_kind = SwitchKind::kNone;
  bool switch_all = false;
  std::uint32_t switch_id = 0;
};

bool parse_injection(const util::Flags& flags, Injection& inj) {
  inj.loss_pct = flags.get_double("LOSS_PCT", 0.0);
  if (const auto spec = flags.get_string("FAIL_LINK", ""); !spec.empty()) {
    const auto colon = spec.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "healthmon: bad --fail_link=%s (want L:S)\n",
                   spec.c_str());
      return false;
    }
    inj.has_link = true;
    inj.link_leaf = static_cast<topo::LeafId>(std::stoul(spec.substr(0, colon)));
    inj.link_spine =
        static_cast<topo::SpineId>(std::stoul(spec.substr(colon + 1)));
  }
  if (const auto spec = flags.get_string("FAIL_SWITCH", ""); !spec.empty()) {
    const auto colon = spec.find(':');
    const auto kind = spec.substr(0, colon);
    if (colon == std::string::npos ||
        (kind != "spine" && kind != "core")) {
      std::fprintf(stderr,
                   "healthmon: bad --fail_switch=%s (want spine:<id|all> or "
                   "core:<id|all>)\n",
                   spec.c_str());
      return false;
    }
    inj.switch_kind = kind == "spine" ? Injection::SwitchKind::kSpine
                                      : Injection::SwitchKind::kCore;
    const auto id = spec.substr(colon + 1);
    if (id == "all") {
      inj.switch_all = true;
    } else {
      inj.switch_id = static_cast<std::uint32_t>(std::stoul(id));
    }
  }
  return true;
}

void apply_injection(const Injection& inj, sim::Fabric& fabric,
                     std::uint64_t seed, const topo::ClosTopology& topo) {
  if (inj.loss_pct > 0) fabric.set_loss(inj.loss_pct / 100.0, seed);
  if (inj.has_link) {
    const sim::NodeRef leaf{topo::Layer::kLeaf, inj.link_leaf};
    const sim::NodeRef spine{topo::Layer::kSpine, inj.link_spine};
    fabric.set_link_loss(leaf, spine, 1.0);
    fabric.set_link_loss(spine, leaf, 1.0);
  }
  switch (inj.switch_kind) {
    case Injection::SwitchKind::kSpine:
      if (inj.switch_all) {
        for (topo::SpineId s = 0; s < topo.num_spines(); ++s) {
          fabric.spine(s).set_down(true);
        }
      } else {
        fabric.spine(inj.switch_id % topo.num_spines()).set_down(true);
      }
      break;
    case Injection::SwitchKind::kCore:
      if (inj.switch_all) {
        for (topo::CoreId c = 0; c < topo.num_cores(); ++c) {
          fabric.core(c).set_down(true);
        }
      } else {
        fabric.core(inj.switch_id % topo.num_cores()).set_down(true);
      }
      break;
    case Injection::SwitchKind::kNone:
      break;
  }
}

std::string describe_injection(const Injection& inj) {
  std::string out;
  if (inj.loss_pct > 0) {
    out += "global loss " + std::to_string(inj.loss_pct) + "%";
  }
  if (inj.has_link) {
    if (!out.empty()) out += ", ";
    out += "black-holed link leaf" + std::to_string(inj.link_leaf) +
           " <-> spine" + std::to_string(inj.link_spine);
  }
  if (inj.switch_kind != Injection::SwitchKind::kNone) {
    if (!out.empty()) out += ", ";
    const char* kind =
        inj.switch_kind == Injection::SwitchKind::kSpine ? "spine" : "core";
    out += std::string{"downed "} + kind + ":" +
           (inj.switch_all ? "all" : std::to_string(inj.switch_id));
  }
  return out.empty() ? "none" : out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags{argc, argv};
  const auto seed = static_cast<std::uint64_t>(flags.get_int("SEED", 1));
  const auto windows = static_cast<std::size_t>(flags.get_int("WINDOWS", 12));
  const auto sends_per_window =
      static_cast<std::size_t>(flags.get_int("SENDS", 16));
  const auto inject_at =
      static_cast<std::size_t>(flags.get_int("INJECT_AT", 3));
  const auto expect = flags.get_string("EXPECT", "");
  const auto json_path = flags.get_string("JSON", "");
  const bool verbose = flags.get_bool("VERBOSE", false);

  Injection inj;
  if (!parse_injection(flags, inj)) return 2;

  // Scenario replay: membership only. Switch failures and sends from the
  // script are skipped — the windowed loop below is the traffic source, and
  // the only failures present are the silently injected ones.
  auto scenario = verify::generate_scenario(seed);
  const topo::ClosTopology topo{scenario.params};
  Controller controller{topo, scenario.config};
  sim::Fabric fabric{topo};
  auto legacy = scenario.legacy_leaves;
  if (!legacy.empty()) {
    legacy.resize(topo.num_leaves(), false);
    controller.set_legacy_leaves(legacy);
    for (topo::LeafId l = 0; l < topo.num_leaves(); ++l) {
      if (legacy[l]) fabric.leaf(l).set_legacy(true);
    }
  }

  std::vector<GroupId> ids;
  for (const auto& g : scenario.groups) {
    ids.push_back(
        controller.create_group(g.tenant, std::span<const Member>{g.members}));
  }
  for (const auto& ev : scenario.events) {
    switch (ev.kind) {
      case verify::EventKind::kJoin:
        controller.join(ids.at(ev.group_index), ev.member);
        break;
      case verify::EventKind::kLeave:
        controller.leave(ids.at(ev.group_index), ev.member.host, ev.member.vm);
        break;
      case verify::EventKind::kHostFail:
        controller.host_fail(ev.member.host);
        break;
      default:
        break;  // failures / sends: not part of the membership replay
    }
  }
  // The oracle starts from the replayed memberships.
  verify::DeliveryOracle oracle{topo, legacy};
  for (const auto id : ids) oracle.create_group(controller.group(id).members);
  // Causal context for incident reports (DESIGN.md §15): the bulk install
  // gets one trace, each sampling window gets its own, and every opened
  // incident carries the IDs of the windows it was active in (plus the
  // install trace) so `trace_ids` in the JSON joins back to a timeline.
  obs::Tracer tracer;
  std::uint64_t install_trace = 0;
  {
    const auto ictx = tracer.begin_span(
        "healthmon:install", obs::TraceLane::kInstall, {},
        {{"groups", static_cast<double>(ids.size())}});
    install_trace = ictx.trace_id;
    stream::ControlPlane{controller, fabric}.sync(ids);
    tracer.end_span(ictx);
  }

  // Flattened (group, sender) round-robin so every window exercises every
  // group's trees.
  struct SendSlot {
    std::size_t gi;
    topo::HostId sender;
  };
  std::vector<SendSlot> slots;
  for (std::size_t gi = 0; gi < ids.size(); ++gi) {
    for (const auto& m : oracle.members(gi)) {
      if (!can_send(m.role)) continue;
      if (verify::host_on_legacy_leaf(topo, legacy, m.host)) continue;
      const auto dup = std::find_if(
          slots.begin(), slots.end(), [&](const SendSlot& s) {
            return s.gi == gi && s.sender == m.host;
          });
      if (dup == slots.end()) slots.push_back(SendSlot{gi, m.host});
    }
  }
  if (slots.empty()) {
    std::fprintf(stderr, "healthmon: seed %llu has no eligible senders\n",
                 static_cast<unsigned long long>(seed));
    return 2;
  }

  obs::TimeSeriesStore store{64};
  obs::HealthMonitor monitor{store};
  obs::add_default_detectors(monitor);
  obs::ProvenanceLog prov;
  fabric.set_provenance(&prov);
  std::vector<std::uint64_t> window_traces;

  std::printf("healthmon: seed=%llu groups=%zu slots=%zu windows=%zu "
              "sends/window=%zu inject@%zu (%s)\n",
              static_cast<unsigned long long>(seed), ids.size(), slots.size(),
              windows, sends_per_window, inject_at,
              describe_injection(inj).c_str());

  double expected_vm_total = 0;
  std::size_t slot_cursor = 0;
  bool injected = false;
  for (std::size_t w = 0; w < windows; ++w) {
    if (!injected && w >= inject_at) {
      try {
        apply_injection(inj, fabric, seed, topo);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "healthmon: bad --fail_link: %s\n", e.what());
        return 2;
      }
      injected = true;
      if (verbose) std::printf("window %zu: failure injected\n", w);
    }
    const auto wctx = tracer.begin_span("healthmon:window",
                                        obs::TraceLane::kControl, {},
                                        {{"window", static_cast<double>(w)}});
    window_traces.push_back(wctx.trace_id);
    std::string last_explanation;
    for (std::size_t s = 0; s < sends_per_window; ++s) {
      const auto& slot = slots[slot_cursor++ % slots.size()];
      const auto& g = controller.group(ids.at(slot.gi));
      const auto ex = oracle.expect(slot.gi, g.encoding, slot.sender);
      prov.clear();
      (void)fabric.send(slot.sender, g.address, std::size_t{64});
      for (const auto& [host, vms] : ex.expected_hosts) {
        expected_vm_total += static_cast<double>(vms);
      }
      if (!prov.empty()) {
        last_explanation = verify::explain_send(prov.last(), ex).render();
      }
    }
    fabric.sample_into(store);
    store.append("elmo_expect_vm_deliveries_total", expected_vm_total);
    store.advance();
    tracer.end_span(wctx);
    const auto opened = monitor.tick();
    for (const auto idx : opened) {
      if (monitor.incidents()[idx].explanation.empty() &&
          !last_explanation.empty()) {
        monitor.attach_explanation(idx, last_explanation);
        break;  // one attachment per window is plenty
      }
    }
    // Contributing traces: the install plus every window the incident has
    // been active in so far (attach_traces replaces, so flaps re-attach).
    for (const auto idx : opened) {
      const auto& inc = monitor.incidents()[idx];
      std::vector<std::uint64_t> contributing{install_trace};
      // Incident windows count COMPLETED windows (store.window() after
      // advance()), so window W is the loop iteration W-1.
      for (auto w2 = std::max<std::uint64_t>(inc.first_window, 1);
           w2 <= inc.last_window && w2 - 1 < window_traces.size(); ++w2) {
        contributing.push_back(window_traces[w2 - 1]);
      }
      monitor.attach_traces(idx, std::move(contributing));
    }
    if (verbose || !opened.empty()) {
      std::printf("window %zu: %zu incident(s) opened, %zu open total\n", w,
                  opened.size(), monitor.open_count());
    }
  }

  std::printf("\n%s", monitor.render_text().c_str());

  if (!json_path.empty()) {
    std::ofstream out{json_path};
    if (!out) {
      std::fprintf(stderr, "healthmon: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << monitor.render_json();
    std::printf("incident JSON written to %s\n", json_path.c_str());
  }

  if (!expect.empty()) {
    if (expect == "none") {
      if (!monitor.incidents().empty()) {
        std::printf("FAIL: expected a clean run, got %zu incident(s)\n",
                    monitor.incidents().size());
        return 1;
      }
      std::printf("OK: clean run, no incidents\n");
    } else {
      if (!monitor.has_incident(expect)) {
        std::printf("FAIL: expected an incident of class %s\n",
                    expect.c_str());
        return 1;
      }
      std::printf("OK: incident of class %s detected\n", expect.c_str());
    }
  }
  return 0;
}
