// Table 2: average (max) switch updates per second under membership churn at
// 1,000 events/sec, P=1 placement, WVE group sizes — Elmo vs Li et al.
//
// Elmo updates are counted from each event's controller change set (header
// templates to hypervisors, s-rule diffs to leaf/spine switches, nothing to
// cores). The Li et al. baseline reinstalls the group's physical tree on
// every change, touching every switch in old-tree U new-tree.
//
// Scale via env: ELMO_CHURN_GROUPS (default 20,000), ELMO_EVENTS (default
// 100,000; paper: 1,000,000), ELMO_PODS.
#include <iostream>

#include "baselines/li_multicast.h"
#include "elmo/churn.h"
#include "figlib.h"

namespace {

using namespace elmo;

struct LiChurnRates {
  CountingSink::Rates leaf;
  CountingSink::Rates spine;
  CountingSink::Rates core;
};

// Replays the same kind of join/leave stream against the Li et al. model.
LiChurnRates li_churn(const topo::ClosTopology& topology,
                      const cloud::Cloud& cloud,
                      const cloud::GroupWorkload& workload,
                      std::size_t events, double events_per_second,
                      util::Rng& rng) {
  baselines::LiMulticast li{topology};

  struct LiGroup {
    cloud::TenantId tenant;
    std::vector<topo::HostId> members;
    baselines::LiTree tree;
    std::uint64_t hash;
  };
  std::vector<LiGroup> groups;
  groups.reserve(workload.groups().size());
  std::vector<double> weights;
  double cumulative = 0;
  for (const auto& g : workload.groups()) {
    LiGroup lg;
    lg.tenant = g.tenant;
    lg.members = g.member_hosts;
    lg.hash = rng();
    lg.tree = li.build_tree(MulticastTree{topology, lg.members}, lg.hash);
    li.install(lg.tree);
    groups.push_back(std::move(lg));
    cumulative += static_cast<double>(g.size());
    weights.push_back(cumulative);
  }

  std::vector<std::uint64_t> leaf_updates(topology.num_leaves(), 0);
  std::vector<std::uint64_t> spine_updates(topology.num_spines(), 0);
  std::vector<std::uint64_t> core_updates(topology.num_cores(), 0);

  for (std::size_t e = 0; e < events; ++e) {
    const double target = rng.uniform(0.0, cumulative);
    const auto gi = static_cast<std::size_t>(
        std::lower_bound(weights.begin(), weights.end(), target) -
        weights.begin());
    auto& group = groups[gi];
    const auto& tenant = cloud.tenants()[group.tenant];

    if (group.members.size() <= 5 || rng.bernoulli(0.5)) {
      // join: a random tenant VM host (duplicates skipped cheaply)
      const auto host = tenant.vm_hosts[rng.index(tenant.size())];
      if (std::find(group.members.begin(), group.members.end(), host) !=
          group.members.end()) {
        continue;
      }
      group.members.push_back(host);
    } else {
      group.members.erase(group.members.begin() +
                          static_cast<std::ptrdiff_t>(
                              rng.index(group.members.size())));
    }
    const auto new_tree =
        li.build_tree(MulticastTree{topology, group.members}, group.hash);
    const auto updates =
        baselines::LiMulticast::updates_for_change(group.tree, new_tree);
    for (const auto l : updates.leaves) ++leaf_updates[l];
    for (const auto s : updates.spines) ++spine_updates[s];
    for (const auto c : updates.cores) ++core_updates[c];
    li.remove(group.tree);
    li.install(new_tree);
    group.tree = new_tree;
  }

  const double seconds = static_cast<double>(events) / events_per_second;
  auto rates = [&](std::span<const std::uint64_t> counts) {
    CountingSink::Rates r;
    std::uint64_t peak = 0;
    for (const auto c : counts) {
      r.total += c;
      peak = std::max(peak, c);
    }
    r.avg = static_cast<double>(r.total) /
            static_cast<double>(counts.size()) / seconds;
    r.max = static_cast<double>(peak) / seconds;
    return r;
  };
  return LiChurnRates{rates(leaf_updates), rates(spine_updates),
                      rates(core_updates)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace elmo;
  using util::TextTable;
  const util::Flags flags{argc, argv};
  auto scale = benchx::Scale::from_flags(flags);
  const auto churn_groups =
      static_cast<std::size_t>(flags.get_int("churn_groups", 20'000));
  const auto events =
      static_cast<std::size_t>(flags.get_int("events", 100'000));

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

  std::cout << "churn: " << churn_groups << " groups, " << events
            << " join/leave events @1000/s, P=1, WVE sizes\n";

  // --- Elmo ----------------------------------------------------------------
  EncoderConfig config;
  config.redundancy_limit = 12;  // the paper's operating point: most state
                                 // in p-rules, few s-rules to churn
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
    Controller::BulkLoadStats stats;
    ids = controller.create_groups(specs, &pool, &stats);
    phases.add("bulk load encode", stats.encode_seconds);
    phases.add("bulk load merge", stats.merge_seconds);
  }
  phases.stop();

  phases.start("elmo churn");
  CountingSink sink{controller};
  ChurnSimulator churn{controller, cloud, ids};
  churn.set_driver(&sink);
  ChurnParams params;
  params.events = events;
  const double seconds = churn.run(params, rng);
  std::cout << "executed " << churn.joins() << " joins, " << churn.leaves()
            << " leaves over " << seconds << " simulated seconds\n\n";
  phases.stop();

  // --- Li et al. -----------------------------------------------------------
  phases.start("li churn");
  const auto li = li_churn(topology, cloud, workload, events, 1000.0, rng);
  phases.stop();

  auto cell = [](const CountingSink::Rates& r) {
    return TextTable::fmt(r.avg, 1) + " (" + TextTable::fmt(r.max, 0) + ")";
  };
  TextTable table{{"switch", "Elmo avg (max) upd/s", "Li et al. avg (max)",
                   "paper Elmo", "paper Li"}};
  table.add_row({"hypervisor", cell(sink.hypervisor_rates(seconds)),
                 "NE (NE)", "21 (46)", "NE (NE)"});
  table.add_row({"leaf", cell(sink.leaf_rates(seconds)),
                 cell(li.leaf), "5 (13)", "42 (42)"});
  table.add_row({"spine", cell(sink.spine_rates(seconds)),
                 cell(li.spine), "4 (7)", "78 (81)"});
  table.add_row({"core", cell(sink.core_rates(seconds)),
                 cell(li.core), "0 (0)", "133 (203)"});
  std::cout << table.render();
  std::cout << "Table 2 shape: Elmo absorbs churn at hypervisors; cores need "
               "zero updates; Li et al. loads every layer.\n";
  auto json_scale = scale;
  json_scale.groups = churn_groups;
  benchx::emit_run_json("table2_churn", json_scale, phases);
  return 0;
}
