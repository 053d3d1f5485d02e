// Streaming control plane under sustained churn: events are ingested by
// elmo::stream::ControlPlane, each one incrementally re-encoded and
// installed as coalesced rule DELTAS over the p4rt wire channel into a live
// sim::Fabric. Reports sustained updates/sec (wall clock), per-layer update
// counts, coalescing efficiency, wire bytes, and the ingest-to-install lag
// distribution (p50/p99) — the paper's §5.1.3a churn story, measured at the
// installed-state level instead of the controller-update level (table2).
//
// Scale via env/flags: ELMO_PODS (default 12 = 27,648 hosts),
// ELMO_CHURN_GROUPS (default 20,000; paper: 1,000,000), ELMO_EVENTS
// (default 50,000; paper: 1,000,000), ELMO_FLUSH (batch threshold,
// default 64), ELMO_CHECK=1 digest-diffs the churned fabric against the
// compiled rules of the final membership (the equivalence oracle; intended
// for reduced-scale CI smoke runs). The --out JSON also records the
// process's peak resident set (getrusage), so memory claims are
// self-reported by the run that made them.
#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <iostream>

#include "elmo/churn.h"
#include "elmo/stream.h"
#include "figlib.h"
#include "sim/fabric.h"

int main(int argc, char** argv) {
  using namespace elmo;
  using util::TextTable;
  const util::Flags flags{argc, argv};
  auto scale = benchx::Scale::from_flags(flags);
  const auto churn_groups =
      static_cast<std::size_t>(flags.get_int("churn_groups", 20'000));
  const auto events =
      static_cast<std::size_t>(flags.get_int("events", 50'000));
  const auto flush_threshold =
      static_cast<std::size_t>(flags.get_int("flush", 64));
  const bool check = flags.get_bool("check", false);
  // --out=<path>: also record the run as a bench/results-style JSON
  // snapshot (docs/BENCH_SCHEMA.md §5).
  const auto out = flags.get_string("out", "");

  util::ThreadPool pool{scale.threads};
  benchx::PhaseTimer phases;

  const topo::ClosTopology topology{scale.topo_params()};
  util::Rng rng{scale.seed};
  scale.tenants = std::max<std::size_t>(
      20, static_cast<std::size_t>(3000.0 * churn_groups / 1e6));
  phases.start("workload");
  const cloud::Cloud cloud{topology, scale.cloud_params(/*P=*/1), rng, &pool};
  cloud::WorkloadParams wp;
  wp.total_groups = churn_groups;
  const cloud::GroupWorkload workload{cloud, wp, rng, &pool};
  phases.stop();

  std::cout << "controller_churn: " << topology.num_hosts() << " hosts, "
            << churn_groups << " groups, " << events
            << " streamed events, flush threshold " << flush_threshold
            << "\n";

  EncoderConfig config;
  config.encoder = scale.encoder_kind;
  config.redundancy_limit = 12;  // paper operating point (see table2)
  Controller controller{topology, config};
  phases.start("bulk load");
  std::vector<GroupId> ids;
  {
    const auto groups = workload.groups();
    const std::uint64_t role_seed = rng();
    std::vector<std::vector<Member>> member_lists(groups.size());
    auto fill = [&](std::size_t gi) {
      const auto& g = groups[gi];
      auto role_rng = util::Rng::stream(role_seed, gi);
      auto& members = member_lists[gi];
      members.reserve(g.size());
      for (std::size_t i = 0; i < g.size(); ++i) {
        members.push_back(Member{g.member_hosts[i], g.member_vms[i],
                                 static_cast<MemberRole>(role_rng.index(3))});
      }
    };
    pool.parallel_for(0, groups.size(), fill);
    std::vector<Controller::GroupSpec> specs(groups.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      specs[gi] = {groups[gi].tenant, member_lists[gi]};
    }
    ids = controller.create_groups(specs, &pool);
  }
  phases.stop();

  sim::Fabric fabric{topology};
  const auto install_start = std::chrono::steady_clock::now();
  // A set-up plane syncs the bulk load over the wire; the churn plane's
  // counters below then hold only the event stream.
  stream::ControlPlane{controller, fabric,
                       stream::ControlPlaneOptions{flush_threshold}}
      .sync(ids);
  const double install_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    install_start)
          .count();
  phases.add("fabric install", install_seconds);

  phases.start("churn");
  stream::ControlPlane plane{controller, fabric,
                             stream::ControlPlaneOptions{flush_threshold}};

  ChurnSimulator churn{controller, cloud, ids};
  churn.set_driver(&plane);
  ChurnParams params;
  params.events = events;
  const auto t0 = std::chrono::steady_clock::now();
  const double simulated = churn.run(params, rng);
  plane.flush();  // drain the tail so every event's lag is recorded
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  phases.stop();

  const auto& st = plane.stats();
  std::cout << "executed " << churn.joins() << " joins, " << churn.leaves()
            << " leaves (" << churn.noop_events() << " no-op attempts), "
            << simulated << " simulated seconds\n\n";

  TextTable table{{"metric", "value"}};
  auto row = [&](const std::string& k, const std::string& v) {
    table.add_row({k, v});
  };
  const double upd_rate = wall > 0 ? st.updates_applied / wall : 0.0;
  const double ev_rate = wall > 0 ? st.events / wall : 0.0;
  row("events ingested", std::to_string(st.events));
  row("clean events (no rule changed)", std::to_string(st.clean_events));
  row("rule updates applied", std::to_string(st.updates_applied));
  row("updates coalesced away", std::to_string(st.updates_coalesced));
  row("rules compiled by diffs", std::to_string(st.rules_compiled));
  row("flow adds / dels",
      std::to_string(st.flow_adds) + " / " + std::to_string(st.flow_dels));
  row("leaf s-rule adds / dels", std::to_string(st.leaf_srule_adds) + " / " +
                                     std::to_string(st.leaf_srule_dels));
  row("spine s-rule adds / dels", std::to_string(st.spine_srule_adds) +
                                      " / " +
                                      std::to_string(st.spine_srule_dels));
  row("wire batches / bytes", std::to_string(st.batches_encoded) + " / " +
                                  std::to_string(st.wire_bytes));
  row("fabric install seconds", TextTable::fmt(install_seconds, 3));
  row("wall seconds", TextTable::fmt(wall, 3));
  row("sustained events/sec", TextTable::fmt(ev_rate, 0));
  row("sustained updates/sec", TextTable::fmt(upd_rate, 0));
  row("install lag p50 (ms)",
      TextTable::fmt(st.install_lag_seconds.percentile(50) * 1e3, 3));
  row("install lag p99 (ms)",
      TextTable::fmt(st.install_lag_seconds.percentile(99) * 1e3, 3));
  std::cout << table.render();

  if (check) {
    phases.start("equivalence check");
    const bool same = stream::fabric_state_digest(fabric) ==
                      stream::compiled_state_digest(controller);
    phases.stop();
    std::cout << (same ? "equivalence: churned fabric digest-equal to the "
                         "compiled rules of the final membership\n"
                       : "equivalence: DIVERGED from the compiled rules\n");
    if (!same) return 1;
  }

  if (!out.empty()) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::ofstream file{out};
    file << "{\"bench\": \"controller_churn\", \"pods\": " << scale.pods
         << ", \"hosts\": " << topology.num_hosts()
         << ", \"groups\": " << churn_groups << ", \"events\": " << events
         << ", \"flush_threshold\": " << flush_threshold
         << ", \"encoder\": \"" << scale.encoder << "\", \"seed\": "
         << scale.seed << ", " << benchx::host_json()
         << ",\n \"results\": {"
         << "\"events_ingested\": " << st.events
         << ", \"clean_events\": " << st.clean_events
         << ", \"updates_applied\": " << st.updates_applied
         << ", \"updates_coalesced\": " << st.updates_coalesced
         << ", \"rules_compiled\": " << st.rules_compiled
         << ", \"flow_adds\": " << st.flow_adds
         << ", \"flow_dels\": " << st.flow_dels
         << ", \"leaf_srule_adds\": " << st.leaf_srule_adds
         << ", \"leaf_srule_dels\": " << st.leaf_srule_dels
         << ", \"spine_srule_adds\": " << st.spine_srule_adds
         << ", \"spine_srule_dels\": " << st.spine_srule_dels
         << ", \"wire_batches\": " << st.batches_encoded
         << ", \"wire_bytes\": " << st.wire_bytes
         << ", \"fabric_install_seconds\": "
         << TextTable::fmt(install_seconds, 3)
         << ", \"wall_seconds\": " << TextTable::fmt(wall, 3)
         << ", \"events_per_sec\": " << TextTable::fmt(ev_rate, 0)
         << ", \"updates_per_sec\": " << TextTable::fmt(upd_rate, 0)
         << ", \"install_lag_p50_ms\": "
         << TextTable::fmt(st.install_lag_seconds.percentile(50) * 1e3, 3)
         << ", \"install_lag_p99_ms\": "
         << TextTable::fmt(st.install_lag_seconds.percentile(99) * 1e3, 3)
         << ", \"peak_rss_mb\": " << TextTable::fmt(peak_rss_mb, 1) << "}}\n";
  }

  auto json_scale = scale;
  json_scale.groups = churn_groups;
  benchx::emit_run_json("controller_churn", json_scale, phases);
  return 0;
}
