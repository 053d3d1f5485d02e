// Table 1: summary of results — re-derives each headline claim from the
// other experiments at a reduced default scale (ELMO_GROUPS to change).
#include <iostream>

#include "elmo/churn.h"
#include "figlib.h"

int main(int argc, char** argv) {
  using namespace elmo;
  using util::TextTable;
  const util::Flags flags{argc, argv};
  auto scale = benchx::Scale::from_flags(flags);
  scale.groups = static_cast<std::size_t>(flags.get_int("groups", 20'000));
  scale.tenants = std::max<std::size_t>(
      20, static_cast<std::size_t>(3000.0 * scale.groups / 1e6));

  util::ThreadPool pool{scale.threads};
  benchx::PhaseTimer phases;

  const topo::ClosTopology topology{scale.topo_params()};
  util::Rng rng{scale.seed};
  phases.start("workload");
  const cloud::Cloud cloud{topology, scale.cloud_params(/*P=*/12), rng,
                           &pool};
  cloud::WorkloadParams wp;
  wp.total_groups = scale.groups;
  const cloud::GroupWorkload workload{cloud, wp, rng, &pool};
  phases.stop();

  phases.start("figures");
  EncoderConfig cfg0;
  cfg0.redundancy_limit = 0;
  const auto r0 =
      benchx::run_figure({topology, workload, cfg0, nullptr, 7, &pool});
  EncoderConfig cfg12;
  cfg12.redundancy_limit = 12;
  const auto r12 =
      benchx::run_figure({topology, workload, cfg12, nullptr, 7, &pool});
  phases.stop();

  // A quick churn slice for the update claim, bulk-loaded through the
  // parallel controller path.
  phases.start("churn");
  Controller controller{topology, EncoderConfig{}};
  std::vector<GroupId> ids;
  {
    const std::size_t slice =
        std::min<std::size_t>(5000, workload.groups().size());
    std::vector<std::vector<Member>> member_lists(slice);
    for (std::size_t gi = 0; gi < slice; ++gi) {
      const auto& g = workload.groups()[gi];
      auto load_rng = util::Rng::stream(scale.seed + 1, gi);
      auto& members = member_lists[gi];
      members.reserve(g.size());
      for (std::size_t i = 0; i < g.size(); ++i) {
        members.push_back(Member{g.member_hosts[i], g.member_vms[i],
                                 static_cast<MemberRole>(load_rng.index(3))});
      }
    }
    std::vector<Controller::GroupSpec> specs(slice);
    for (std::size_t gi = 0; gi < slice; ++gi) {
      specs[gi] = {workload.groups()[gi].tenant, member_lists[gi]};
    }
    ids = controller.create_groups(specs, &pool);
  }
  CountingSink sink{controller};
  ChurnSimulator churn{controller, cloud, ids};
  churn.set_driver(&sink);
  ChurnParams cp;
  cp.events = 20'000;
  const double seconds = churn.run(cp, rng);
  phases.stop();

  TextTable table{{"claim (paper, 1M groups)", "measured here"}};
  table.add_row(
      {"95-99% of groups encoded with p-rules alone",
       TextTable::fmt_pct(static_cast<double>(r0.covered_p_rules_only) /
                          r0.groups_total) +
           " (R=0) .. " +
           TextTable::fmt_pct(static_cast<double>(r12.covered_p_rules_only) /
                              r12.groups_total) +
           " (R=12)"});
  table.add_row(
      {"avg p-rule header 114 B (min 15, max 325)",
       TextTable::fmt(r12.header_bytes.mean(), 0) + " B (min " +
           TextTable::fmt(r12.header_bytes.min(), 0) + ", max " +
           TextTable::fmt(r12.header_bytes.max(), 0) + ")"});
  table.add_row(
      {"leaf s-rules mean 1,100 (max 2,900); spine mean 3,800 (max 11,000)",
       "leaf " + TextTable::fmt(r0.leaf_srules.mean(), 0) + " (max " +
           TextTable::fmt(r0.leaf_srules.max(), 0) + "); spine " +
           TextTable::fmt(r0.spine_srules.mean(), 0) + " (max " +
           TextTable::fmt(r0.spine_srules.max(), 0) + ") at R=0"});
  table.add_row(
      {"traffic overhead within 5% (1500 B) and 34% (64 B) of ideal",
       TextTable::fmt_pct(r12.overhead(1500) - 1.0) + " / " +
           TextTable::fmt_pct(r12.overhead(64) - 1.0)});
  table.add_row(
      {"hypervisor updates avg 21 (max 46) per sec at 1000 events/s",
       TextTable::fmt(sink.hypervisor_rates(seconds).avg, 1) + " (max " +
           TextTable::fmt(sink.hypervisor_rates(seconds).max, 0) + ")"});
  table.add_row({"core switches need zero updates",
                 std::to_string(sink.core_rates(seconds).total) +
                     " core updates observed"});
  table.add_row({"apps unmodified: pub-sub flat rps/CPU, sFlow flat egress",
                 "see fig6_pubsub and fig_sflow_telemetry"});
  table.add_row({"hypervisor encap at line rate regardless of p-rules",
                 "see fig7_hypervisor_tput"});

  std::cout << "Table 1 summary at " << scale.groups << " groups, "
            << topology.num_hosts() << " hosts (paper scale: 1M groups)\n"
            << table.render();
  benchx::emit_run_json("table1_summary", scale, phases);
  return 0;
}
