#include "elmo/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "elmo/churn.h"
#include "elmo/snapshot.h"
#include "testutil.h"
#include "util/rng.h"

namespace elmo::stream {
namespace {

EncoderConfig config_for(EncoderKind kind) {
  EncoderConfig cfg;
  cfg.encoder = kind;
  cfg.hmax_leaf_override = 2;  // force s-rules so every rule kind appears
  return cfg;
}

// Hand-built single-tenant world with co-located VMs (4 VMs per host).
struct StreamWorld {
  explicit StreamWorld(EncoderKind kind = EncoderKind::kElmo,
                       std::uint32_t vms = 40)
      : StreamWorld{config_for(kind), vms} {}
  StreamWorld(const EncoderConfig& config, std::uint32_t vms)
      : topology{topo::ClosParams::small_test()},
        controller{topology, config},
        fabric{topology} {
    tenants.resize(1);
    tenants[0].id = 0;
    for (std::uint32_t vm = 0; vm < vms; ++vm) {
      tenants[0].vm_hosts.push_back((vm / 4) % topology.num_hosts());
    }
  }

  GroupId make_group(std::span<const std::uint32_t> vms) {
    std::vector<Member> members;
    for (const auto vm : vms) {
      members.push_back(Member{tenants[0].vm_hosts[vm], vm, MemberRole::kBoth});
    }
    return controller.create_group(0, members);
  }

  // Installs `ids` with a short-lived set-up plane, so a test's own plane
  // counts only its events.
  void install(std::span<const GroupId> ids) {
    ControlPlane{controller, fabric}.sync(ids);
  }

  topo::ClosTopology topology;
  Controller controller;
  sim::Fabric fabric;
  std::vector<cloud::Tenant> tenants;
};

// A join that moves the tree names every sender of the group, so joins of
// receiving senders onto a never-installed one-member group stream its
// whole install: every member flow and every s-rule.
TEST(ControlPlane, JoinOnUntrackedGroupStreamsFullInstall) {
  StreamWorld w;
  const std::vector<std::uint32_t> first{0};
  const auto id = w.make_group(first);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};
  for (const std::uint32_t vm : {4u, 8u, 33u}) {
    cp.join(id, Member{w.tenants[0].vm_hosts[vm], vm, MemberRole::kBoth});
  }

  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  EXPECT_GT(cp.stats().updates_applied, 0u);
  EXPECT_GT(cp.stats().wire_bytes, 0u);
}

TEST(ControlPlane, JoinEmitsDeltaNotFullReinstall) {
  StreamWorld w;
  const std::vector<std::uint32_t> vms{0, 4, 8, 12, 16, 20};
  const auto id = w.make_group(vms);
  w.install(std::array{id});

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};

  // A receiver joining a host that already has a member: the receiver host
  // set is unchanged, so the tree, encoding and every sender header stay
  // put — the delta must be exactly ONE flow update (that host's local_vms
  // gained a VM), not a re-push of the whole group.
  const std::uint32_t joining_vm = 1;  // co-located with vm 0
  ASSERT_EQ(w.tenants[0].vm_hosts[joining_vm], w.tenants[0].vm_hosts[0]);
  cp.join(id, Member{w.tenants[0].vm_hosts[joining_vm], joining_vm,
                     MemberRole::kReceiver});
  cp.flush();

  EXPECT_EQ(cp.stats().flow_adds, 1u)
      << "a delta install must not re-push every member's flow";
  EXPECT_EQ(cp.stats().leaf_srule_adds + cp.stats().spine_srule_adds, 0u);
  EXPECT_EQ(cp.stats().updates_applied, 1u);

  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
}

TEST(ControlPlane, LeaveRemovesVacatedHostFlow) {
  StreamWorld w;
  const std::vector<std::uint32_t> vms{0, 4, 8};
  const auto id = w.make_group(vms);
  w.install(std::array{id});

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};

  const auto host = w.tenants[0].vm_hosts[8];
  cp.leave(id, host, 8);
  cp.flush();

  EXPECT_FALSE(w.fabric.hypervisor(host).has_flow(
      w.controller.group(id).address));
  EXPECT_GE(cp.stats().flow_dels, 1u);

  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
}

TEST(ControlPlane, DetachingTracerDropsOpenWatches) {
  // Watch timestamps are on the attached tracer's clock. Detaching it while
  // a join watch is open must drop the watch, so the next delivery to the
  // watched host does not reach for a tracer that is gone.
  StreamWorld w;
  const std::vector<std::uint32_t> vms{0, 4, 8};
  const auto id = w.make_group(vms);
  w.install(std::array{id});

  obs::Tracer tracer;
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};
  cp.set_tracer(&tracer);
  const Member joiner{w.tenants[0].vm_hosts[12], 12, MemberRole::kBoth};
  cp.join(id, joiner);  // installed at once; open until the first delivery
  ASSERT_EQ(w.fabric.open_trace_watches(), 1u);

  cp.set_tracer(nullptr);
  const auto result = w.fabric.send(w.tenants[0].vm_hosts[0],
                                    w.controller.group(id).address, 64);
  EXPECT_TRUE(result.host_copies.contains(joiner.host));
  EXPECT_EQ(w.fabric.open_trace_watches(), 0u);
  EXPECT_TRUE(w.fabric.tte_records().empty());
}

// Every closed time-to-effect watch is recorded twice: as a fabric
// TteRecord and as a tte:* instant in the churn event's trace. Tools read
// the verdicts from the tracer alone (tools/trace_query), so the two must
// agree one for one: same trace, polarity, group, host, tte_us and
// stale_seen. Batching (threshold 8) lets sends land before the installs
// too, so joins see pre-install deliveries and leaves see stale copies.
TEST(ControlPlane, TracerTteInstantsMatchFabricRecords) {
  StreamWorld w;
  std::vector<GroupId> ids;
  std::vector<std::vector<std::uint32_t>> members;
  for (std::uint32_t g = 0; g < 4; ++g) {
    members.push_back({g, g + 9, g + 18, g + 27});
    ids.push_back(w.make_group(members.back()));
  }
  w.install(ids);
  obs::Tracer tracer;
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{8}};
  cp.set_tracer(&tracer);

  auto rng = util::Rng::stream(30, 0);
  const auto send = [&](std::size_t gi) {
    const auto& vms = members[gi];
    (void)w.fabric.send(w.tenants[0].vm_hosts[vms[rng.index(vms.size())]],
                        w.controller.group(ids[gi]).address, 64);
  };
  for (int step = 0; step < 200; ++step) {
    const auto gi = rng.index(ids.size());
    auto& vms = members[gi];
    const auto vm = static_cast<std::uint32_t>(rng.index(40));
    const auto host = w.tenants[0].vm_hosts[vm];
    if (const auto it = std::find(vms.begin(), vms.end(), vm);
        it == vms.end()) {
      cp.join(ids[gi], Member{host, vm, MemberRole::kBoth});
      vms.push_back(vm);
    } else if (vms.size() > 1) {
      cp.leave(ids[gi], host, vm);
      vms.erase(it);
    }
    send(gi);
  }
  cp.flush();
  for (std::size_t gi = 0; gi < ids.size(); ++gi) send(gi);

  using Verdict = std::tuple<std::uint64_t, bool, std::uint32_t,
                             std::uint32_t, double, bool>;
  std::vector<Verdict> from_fabric;
  for (const auto& rec : w.fabric.tte_records()) {
    from_fabric.emplace_back(rec.trace_id, rec.leave, rec.group, rec.host,
                             rec.tte_seconds * 1e6, rec.stale_seen);
  }
  std::vector<Verdict> from_tracer;
  for (const auto& rec : tracer.snapshot()) {
    const std::string name = rec.name;
    if (rec.kind != obs::SpanRecord::Kind::kInstant ||
        name.rfind("tte:", 0) != 0) {
      continue;
    }
    ASSERT_TRUE(name == "tte:first_delivery" || name == "tte:leave_closed")
        << name;
    double group = -1, host = -1, tte_us = -1, stale_seen = 0;
    for (std::uint8_t i = 0; i < rec.nattrs; ++i) {
      const std::string key = rec.attrs[i].key;
      if (key == "group") group = rec.attrs[i].value;
      if (key == "host") host = rec.attrs[i].value;
      if (key == "tte_us") tte_us = rec.attrs[i].value;
      if (key == "stale_seen") stale_seen = rec.attrs[i].value;
    }
    from_tracer.emplace_back(rec.trace_id, name == "tte:leave_closed",
                             static_cast<std::uint32_t>(group),
                             static_cast<std::uint32_t>(host), tte_us,
                             stale_seen != 0);
  }

  const auto count = [&](bool leave, bool stale) {
    return std::count_if(from_fabric.begin(), from_fabric.end(),
                         [&](const Verdict& v) {
                           return std::get<1>(v) == leave &&
                                  std::get<5>(v) == stale;
                         });
  };
  EXPECT_GT(count(false, false), 0);
  EXPECT_GT(count(true, false), 0);
  EXPECT_GT(count(true, true), 0);
  std::sort(from_fabric.begin(), from_fabric.end());
  std::sort(from_tracer.begin(), from_tracer.end());
  EXPECT_EQ(std::adjacent_find(from_fabric.begin(), from_fabric.end()),
            from_fabric.end())
      << "two records of one watch";
  EXPECT_EQ(from_tracer, from_fabric);
  EXPECT_EQ(tracer.stats().dropped, 0u);
}

TEST(ControlPlane, CoalescingCollapsesRepeatedTouchesToOneRule) {
  StreamWorld w;
  const std::vector<std::uint32_t> vms{0, 4, 8};
  const auto id = w.make_group(vms);
  w.install(std::array{id});

  // Large threshold: nothing flushes while the same host's flow is touched
  // repeatedly; the wire must see only the final state.
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{100000}};

  // vms 12..15 live on one host: four joins touch the same flow.
  for (std::uint32_t vm = 12; vm < 16; ++vm) {
    cp.join(id, Member{w.tenants[0].vm_hosts[vm], vm, MemberRole::kReceiver});
  }
  EXPECT_GT(cp.stats().updates_coalesced, 0u);
  cp.flush();

  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
}

TEST(ControlPlane, HostFailEvictsEveryMembershipOnTheHost) {
  StreamWorld w;
  // Host of vms 0..3 carries members of two groups.
  const std::vector<std::uint32_t> g1_vms{0, 1, 8};
  const std::vector<std::uint32_t> g2_vms{2, 12, 16};
  const auto g1 = w.make_group(g1_vms);
  const auto g2 = w.make_group(g2_vms);
  w.install(std::array{g1, g2});

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};

  const auto dead = w.tenants[0].vm_hosts[0];
  const auto impact = cp.host_fail(dead);
  cp.flush();
  // vms 0, 1 (g1) and 2 (g2), one change set per group.
  ASSERT_EQ(impact.groups_affected(), 2u);
  EXPECT_EQ(impact.changes[0].first, g1);
  EXPECT_EQ(impact.changes[1].first, g2);
  EXPECT_EQ(w.controller.group(g1).members.size(), 1u);
  EXPECT_EQ(w.controller.group(g2).members.size(), 2u);

  for (const auto id : {g1, g2}) {
    for (const auto& m : w.controller.group(id).members) {
      EXPECT_NE(m.host, dead);
    }
  }
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  EXPECT_FALSE(w.fabric.hypervisor(dead).has_flow(
      w.controller.group(g1).address));
  EXPECT_FALSE(w.fabric.hypervisor(dead).has_flow(
      w.controller.group(g2).address));
  EXPECT_EQ(cp.stats().host_fails, 1u);
}

TEST(ControlPlane, HostFailEvictsAFlowReTemplatedByEarlierJoins) {
  // The doomed host joins through the stream (its flow slot is new), then
  // later joins re-encode the group and re-template every sender's header,
  // the doomed host's included. The failure must still find and evict it.
  StreamWorld w;
  const auto g = w.make_group(std::vector<std::uint32_t>{0, 1, 8});
  w.install(std::array{g});
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};

  const auto dead = w.tenants[0].vm_hosts[12];
  ASSERT_EQ(w.tenants[0].vm_hosts[13], dead);
  for (const std::uint32_t vm : {12u, 13u}) {
    cp.join(g, Member{dead, vm, MemberRole::kBoth});
  }
  cp.flush();
  const auto addr = w.controller.group(g).address;
  ASSERT_TRUE(w.fabric.hypervisor(dead).has_flow(addr));
  std::size_t retemplated = 0;
  for (const std::uint32_t vm : {20u, 28u, 36u}) {
    const auto before = w.fabric.hypervisor(dead).flow(addr)->elmo_header;
    cp.join(g, Member{w.tenants[0].vm_hosts[vm], vm, MemberRole::kBoth});
    cp.flush();
    if (w.fabric.hypervisor(dead).flow(addr)->elmo_header != before) {
      ++retemplated;
    }
  }
  ASSERT_GE(retemplated, 2u);

  const auto members = w.controller.group(g).members.size();
  EXPECT_EQ(cp.host_fail(dead).groups_affected(), 1u);
  EXPECT_EQ(w.controller.group(g).members.size(), members - 2);  // 12, 13
  cp.flush();
  EXPECT_FALSE(w.fabric.hypervisor(dead).has_flow(addr));
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  // Nothing of the group is left on the host to evict.
  EXPECT_EQ(cp.host_fail(dead).groups_affected(), 0u);
}

TEST(ControlPlane, JoinThenLeaveBeforeFlushRestoresInstalledState) {
  // The leave is diffed while the join's updates are still pending. Every
  // slot it diffs then wants what the fabric already holds: the senders'
  // flows their installed headers, the joiner's host no flow, which the
  // fabric never held. Each pending update is dropped, not replaced by one
  // that rewrites the installed rule, so the flush sends nothing.
  StreamWorld w;
  const auto id = w.make_group(std::vector<std::uint32_t>{0, 4, 8});
  w.install(std::array{id});
  const auto before = fabric_state_digest(w.fabric);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{100000}};
  const Member joiner{w.tenants[0].vm_hosts[12], 12, MemberRole::kBoth};
  cp.join(id, joiner);
  const auto queued = cp.pending();
  ASSERT_GT(queued, 0u);
  cp.leave(id, joiner.host, joiner.vm);
  EXPECT_EQ(cp.pending(), 0u);
  EXPECT_EQ(cp.stats().updates_coalesced, queued);
  EXPECT_EQ(cp.stats().clean_events, 0u);  // the leave dropped updates
  EXPECT_EQ(cp.flush(), 0u);
  EXPECT_EQ(cp.stats().updates_applied, 0u);

  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  EXPECT_EQ(fabric_state_digest(w.fabric), before);
}

TEST(ControlPlane, LeaveThatVacatesAnSRuleLeafDeletesIt) {
  // hmax_leaf_override = 2 pushes leaves past the first two into s-rules.
  // Emptying such a leaf must delete its s-rule: the delete comes from the
  // leave's change set, since the group no longer compiles that slot.
  StreamWorld w{EncoderKind::kElmo, 80};
  const auto id =
      w.make_group(std::vector<std::uint32_t>{0, 20, 24, 40, 44, 60, 76});
  w.install(std::array{id});
  const auto& srules = w.controller.group(id).encoding.leaf.s_rules;
  ASSERT_FALSE(srules.empty());
  const auto leaf = srules.front().first;
  const auto addr = w.controller.group(id).address;
  ASSERT_NE(w.fabric.leaf(leaf).srule(addr), nullptr);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};
  std::vector<Member> on_leaf;
  for (const auto& m : w.controller.group(id).members) {
    if (w.topology.leaf_of_host(m.host) == leaf) on_leaf.push_back(m);
  }
  ASSERT_FALSE(on_leaf.empty());
  for (const auto& m : on_leaf) cp.leave(id, m.host, m.vm);
  cp.flush();

  EXPECT_GE(cp.stats().leaf_srule_dels, 1u);
  EXPECT_EQ(w.fabric.leaf(leaf).srule(addr), nullptr);
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
}

TEST(ControlPlane, InstallLagIsRecordedPerEvent) {
  StreamWorld w;
  const auto id = w.make_group(std::vector<std::uint32_t>{0, 4, 8});
  w.install(std::array{id});

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{100000}};
  cp.join(id, Member{w.tenants[0].vm_hosts[12], 12, MemberRole::kReceiver});
  cp.join(id, Member{w.tenants[0].vm_hosts[16], 16, MemberRole::kReceiver});
  EXPECT_EQ(cp.stats().install_lag_seconds.count(), 0u);  // not flushed yet
  cp.flush();
  EXPECT_EQ(cp.stats().install_lag_seconds.count(), 2u);
  EXPECT_GE(cp.stats().install_lag_seconds.percentile(99), 0.0);
}

// Every ControlPlaneStats counter, in declaration order.
std::vector<std::uint64_t> counters(const ControlPlaneStats& st) {
  return {st.events,          st.joins,           st.leaves,
          st.host_fails,      st.switch_events,   st.clean_events,
          st.rules_compiled,  st.flushes,         st.batches_encoded,
          st.wire_bytes,      st.updates_applied, st.updates_coalesced,
          st.flow_adds,       st.flow_dels,       st.leaf_srule_adds,
          st.leaf_srule_dels, st.spine_srule_adds, st.spine_srule_dels};
}

TEST(ControlPlane, RejectedEventLeavesNoTrace) {
  // Every kind of event the controller rejects must throw its exception
  // having counted nothing, queued nothing, stamped no ingest time, changed
  // no installed rule and left no span open. An accepted join is pending
  // when they arrive.
  StreamWorld w;
  const auto id = w.make_group(std::vector<std::uint32_t>{0, 4, 8});
  w.install(std::array{id});

  obs::Tracer tracer;
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{100000}};
  cp.set_tracer(&tracer);
  cp.join(id, Member{w.tenants[0].vm_hosts[12], 12, MemberRole::kReceiver});
  ASSERT_GT(cp.pending(), 0u);
  const auto stats = counters(cp.stats());
  const auto pending = cp.pending();
  const auto digest = fabric_state_digest(w.fabric);

  EXPECT_THROW(cp.leave(id, w.tenants[0].vm_hosts[20], 20),  // not a member
               std::invalid_argument);
  EXPECT_THROW(cp.join(999, Member{0, 0, MemberRole::kBoth}),  // no group
               std::out_of_range);
  EXPECT_THROW(
      cp.host_fail(static_cast<topo::HostId>(w.topology.num_hosts())),
      std::out_of_range);
  EXPECT_THROW(
      cp.fail_spine(static_cast<topo::SpineId>(w.topology.num_spines())),
      std::out_of_range);
  EXPECT_TRUE(w.controller.failures().empty());
  EXPECT_EQ(counters(cp.stats()), stats);
  EXPECT_EQ(cp.pending(), pending);
  EXPECT_EQ(fabric_state_digest(w.fabric), digest);
  EXPECT_EQ(tracer.stats().open_spans, 0u);

  // Only the accepted join was stamped and counted.
  cp.flush();
  EXPECT_EQ(cp.stats().events, 1u);
  EXPECT_EQ(cp.stats().joins, 1u);
  EXPECT_EQ(cp.stats().install_lag_seconds.count(), 1u);
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  EXPECT_EQ(tracer.stats().open_spans, 0u);
}

TEST(ControlPlane, EventsThatChangeNoRuleAreClean) {
  // Every member sits on one leaf, so no spine carries the group: a spine
  // failure and its restore re-route nothing, and a host with no member
  // evicts nothing. Each is still an event, and a clean one.
  StreamWorld w;
  const auto id = w.make_group(std::vector<std::uint32_t>{0, 4});
  ASSERT_EQ(w.topology.leaf_of_host(w.tenants[0].vm_hosts[0]),
            w.topology.leaf_of_host(w.tenants[0].vm_hosts[4]));
  w.install(std::array{id});
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};

  const auto empty_host = static_cast<topo::HostId>(w.topology.num_hosts() - 1);
  EXPECT_EQ(cp.host_fail(empty_host).groups_affected(), 0u);
  EXPECT_EQ(cp.fail_spine(0).groups_affected(), 0u);
  EXPECT_EQ(cp.restore_spine(0).groups_affected(), 0u);
  cp.flush();
  EXPECT_EQ(cp.stats().events, 3u);
  EXPECT_EQ(cp.stats().host_fails, 1u);
  EXPECT_EQ(cp.stats().switch_events, 2u);
  EXPECT_EQ(cp.stats().clean_events, 3u);
  EXPECT_EQ(cp.stats().updates_applied, 0u);
  EXPECT_EQ(cp.stats().install_lag_seconds.count(), 3u);
}

TEST(ControlPlane, PlaneMetricsExportEveryStatsField) {
  // One spine p-rule of one pod: every other pod of a group gets spine
  // s-rules, so each update kind occurs. 256 VMs fill all four pods.
  auto config = config_for(EncoderKind::kElmo);
  config.hmax_spine = 1;
  config.kmax_spine = 1;
  StreamWorld w{config, 256};
  const auto g1 = w.make_group(std::vector<std::uint32_t>{0, 9, 70, 140, 210});
  const auto g2 = w.make_group(std::vector<std::uint32_t>{1, 45, 80, 150});
  w.install(std::array{g1, g2});
  // Explicit flushes only: the joins re-template the same sender flows, so
  // their updates coalesce.
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{100000}};
  for (const std::uint32_t vm : {50u, 54u, 220u}) {
    cp.join(g1, Member{w.tenants[0].vm_hosts[vm], vm, MemberRole::kBoth});
  }
  cp.flush();
  cp.leave(g2, w.tenants[0].vm_hosts[45], 45);
  cp.host_fail(w.tenants[0].vm_hosts[140]);
  cp.flush();
  cp.fail_spine(w.topology.spine_at(1, 0));
  cp.restore_spine(w.topology.spine_at(1, 0));
  cp.host_fail(w.tenants[0].vm_hosts[255]);  // no member there
  cp.flush();

  obs::MetricsRegistry reg;
  accumulate_plane_metrics(cp.stats(), reg);
  const auto snap = reg.snapshot();
  const auto& st = cp.stats();
  const std::vector<std::string> names{
      "events",          "joins",           "leaves",
      "host_fails",      "switch_events",   "clean_events",
      "rules_compiled",  "flushes",         "batches_encoded",
      "wire_bytes",      "updates",         "updates_coalesced",
      "flow_adds",       "flow_dels",       "leaf_srule_adds",
      "leaf_srule_dels", "spine_srule_adds", "spine_srule_dels"};
  const auto fields = counters(st);
  ASSERT_EQ(names.size(), fields.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto series = "elmo_stream_" + names[i] + "_total";
    ASSERT_NE(snap.find(series), nullptr) << series;
    EXPECT_EQ(snap.value(series), static_cast<double>(fields[i])) << series;
  }
  EXPECT_EQ(snap.value("elmo_stream_updates_hypervisor_total"),
            static_cast<double>(st.flow_adds + st.flow_dels));
  EXPECT_EQ(snap.value("elmo_stream_updates_leaf_total"),
            static_cast<double>(st.leaf_srule_adds + st.leaf_srule_dels));
  EXPECT_EQ(snap.value("elmo_stream_updates_spine_total"),
            static_cast<double>(st.spine_srule_adds + st.spine_srule_dels));
  const auto* lag = snap.find("elmo_stream_install_lag_seconds");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->observations, st.install_lag_seconds.count());
  EXPECT_EQ(st.install_lag_seconds.count(), st.events);
  // Every counter moved, so a field the export dropped would show as 0.
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_GT(fields[i], 0u) << names[i];
  }
}

TEST(ControlPlane, ChurnRootsCarryGroupAddressAndId) {
  // "group" means the group address on every record (installs, sends and
  // tte:* instants use it too); a churn root adds the id as "group_id".
  StreamWorld w;
  const auto id = w.make_group(std::vector<std::uint32_t>{0, 4, 8});
  w.install(std::array{id});
  obs::Tracer tracer;
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};
  cp.set_tracer(&tracer);
  cp.join(id, Member{w.tenants[0].vm_hosts[12], 12, MemberRole::kBoth});
  cp.leave(id, w.tenants[0].vm_hosts[12], 12);

  const auto address = w.controller.group(id).address.value;
  std::size_t roots = 0;
  for (const auto& rec : tracer.snapshot()) {
    const std::string name = rec.name;
    if (name != "churn:join" && name != "churn:leave") continue;
    ++roots;
    ASSERT_EQ(rec.nattrs, 4u);
    EXPECT_EQ(std::string{rec.attrs[0].key}, "group");
    EXPECT_EQ(rec.attrs[0].value, static_cast<double>(address));
    EXPECT_EQ(std::string{rec.attrs[1].key}, "group_id");
    EXPECT_EQ(rec.attrs[1].value, static_cast<double>(id));
  }
  EXPECT_EQ(roots, 2u);
}

TEST(FabricStateDigest, SeesEveryRuleFaultButNotLocalVmOrder) {
  // The harness's continuous state diff rests on these digests: a dropped
  // s-rule, a dropped local VM and one flipped header byte must each change
  // both the fold of the compiled rules and the fold of a fabric that holds
  // them, while a permuted local_vms list (streamed joins append in event
  // order) must change neither.
  StreamWorld w{EncoderKind::kElmo, 80};
  const auto id =
      w.make_group(std::vector<std::uint32_t>{0, 1, 20, 24, 40, 44, 60, 76});
  const auto& g = w.controller.group(id);
  ASSERT_FALSE(g.encoding.leaf.s_rules.empty());
  const auto srule_leaf = g.encoding.leaf.s_rules.front().first;
  const topo::HostId host = w.tenants[0].vm_hosts[0];  // VMs 0 and 1

  using Rules = std::vector<p4rt::Update>;
  // The flow at host `target`, or the leaf s-rule at leaf `target`.
  const auto find_rule = [](Rules& rules, p4rt::UpdateKind kind,
                            std::uint32_t target) {
    return std::find_if(rules.begin(), rules.end(), [&](const auto& u) {
      return u.kind == kind && (kind == p4rt::UpdateKind::kSRuleAdd
                                    ? u.layer == topo::Layer::kLeaf &&
                                          u.switch_id == target
                                    : u.host == target);
    });
  };
  const auto flow = [&](Rules& rules) -> p4rt::Update& {
    return *find_rule(rules, p4rt::UpdateKind::kHypervisorFlowAdd, host);
  };
  // Folds the edited compiled rules, and checks that a fabric they are
  // applied to folds to the same value.
  const auto digest_with = [&](const auto& fault) {
    auto rules = p4rt::compile_install(w.controller, id);
    fault(rules);
    sim::Fabric fabric{w.topology};
    for (const auto& u : rules) fabric.apply(u);
    const auto digest = rules_digest(rules);
    EXPECT_EQ(fabric_state_digest(fabric), digest);
    return digest;
  };

  {
    auto rules = p4rt::compile_install(w.controller, id);
    ASSERT_NE(find_rule(rules, p4rt::UpdateKind::kSRuleAdd, srule_leaf),
              rules.end());
    ASSERT_NE(find_rule(rules, p4rt::UpdateKind::kHypervisorFlowAdd, host),
              rules.end());
    ASSERT_EQ(flow(rules).local_vms.size(), 2u);
    ASSERT_FALSE(flow(rules).elmo_header.empty());
  }
  const auto clean = digest_with([](Rules&) {});
  EXPECT_EQ(clean, compiled_state_digest(w.controller));
  EXPECT_NE(digest_with([&](Rules& r) {
              r.erase(find_rule(r, p4rt::UpdateKind::kSRuleAdd, srule_leaf));
            }),
            clean);
  EXPECT_NE(digest_with([&](Rules& r) { flow(r).local_vms.pop_back(); }),
            clean);
  EXPECT_NE(digest_with([&](Rules& r) {
              auto& header = flow(r).elmo_header;
              header[header.size() / 2] ^= 0x01;
            }),
            clean);
  EXPECT_EQ(digest_with([&](Rules& r) {
              auto& vms = flow(r).local_vms;
              std::reverse(vms.begin(), vms.end());
            }),
            clean);
}

TEST(RulesDigest, IgnoresRuleOrderAndVmOrder) {
  StreamWorld w{EncoderKind::kElmo, 80};
  const auto id =
      w.make_group(std::vector<std::uint32_t>{0, 1, 2, 20, 24, 40, 44, 60});
  auto rules = p4rt::compile_install(w.controller, id);
  const auto clean = rules_digest(rules);

  std::reverse(rules.begin(), rules.end());
  EXPECT_EQ(rules_digest(rules), clean);
  std::size_t permuted = 0;
  for (auto& u : rules) {
    if (u.local_vms.size() < 2) continue;
    std::reverse(u.local_vms.begin(), u.local_vms.end());
    ++permuted;
  }
  ASSERT_GT(permuted, 0u);
  EXPECT_EQ(rules_digest(rules), clean);
  // Deletes carry no installed state.
  for (auto& u : rules) {
    u.kind = u.kind == p4rt::UpdateKind::kHypervisorFlowAdd
                 ? p4rt::UpdateKind::kHypervisorFlowDel
                 : p4rt::UpdateKind::kSRuleDel;
  }
  EXPECT_EQ(rules_digest(rules), 0u);
}

const char* encoder_name(EncoderKind kind) {
  switch (kind) {
    case EncoderKind::kElmo:
      return "Elmo";
    case EncoderKind::kBert:
      return "Bert";
    case EncoderKind::kP3fa:
      return "P3fa";
  }
  return "Unknown";
}

// The compiled-rules referee agrees with what a batch install leaves in a
// fabric, for every encoder, with legacy leaves (they keep p-rules in
// sender headers) and a failed spine (it re-routes sender headers) in play.
class CompiledStateDigest : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(CompiledStateDigest, EqualsBatchInstalledFabric) {
  StreamWorld w{GetParam(), 80};
  std::vector<bool> legacy(w.topology.num_leaves(), false);
  for (std::size_t l = 0; l < legacy.size(); l += 2) legacy[l] = true;
  w.controller.set_legacy_leaves(legacy);
  for (topo::LeafId l = 0; l < legacy.size(); ++l) {
    if (legacy[l]) w.fabric.leaf(l).set_legacy(true);
  }

  std::vector<GroupId> ids;
  ids.push_back(w.make_group(std::vector<std::uint32_t>{0, 4, 8, 12}));
  ids.push_back(
      w.make_group(std::vector<std::uint32_t>{1, 20, 33, 47, 60, 76}));
  ids.push_back(w.make_group(std::vector<std::uint32_t>{2, 6, 70}));
  const auto healthy = compiled_state_digest(w.controller);
  w.controller.fail_spine(0);
  w.fabric.spine(0).set_down(true);
  w.install(ids);

  // The failure re-templated some sender header.
  EXPECT_NE(compiled_state_digest(w.controller), healthy);
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, CompiledStateDigest,
                         ::testing::Values(EncoderKind::kElmo,
                                           EncoderKind::kBert,
                                           EncoderKind::kP3fa),
                         [](const auto& info) {
                           return encoder_name(info.param);
                         });

// Change-set completeness, the property the plane's diffs rest on: an event
// rewrites no rule outside the slots of its change sets. Random joins,
// leaves, host failures and spine or core failures and restores stream
// through the plane, with a flush after a random subset of events; after
// each flush the fabric must hold exactly the compiled rules of every group.
// Every encoder, once on a healthy fabric and once with legacy leaves
// (p-rules stay in sender headers) and a failed spine 0 (sender headers
// carry explicit upstream ports).
class ChangeSetCompleteness
    : public ::testing::TestWithParam<std::tuple<EncoderKind, bool>> {};

TEST_P(ChangeSetCompleteness, RefreshAfterEveryEventQueuesNothing) {
  const auto [kind, degraded] = GetParam();
  StreamWorld w{kind, 80};
  if (degraded) {
    std::vector<bool> legacy(w.topology.num_leaves(), false);
    for (std::size_t l = 1; l < legacy.size(); l += 2) legacy[l] = true;
    w.controller.set_legacy_leaves(legacy);
    for (topo::LeafId l = 0; l < legacy.size(); ++l) {
      if (legacy[l]) w.fabric.leaf(l).set_legacy(true);
    }
  }
  util::Rng rng{degraded ? 77u : 76u};
  auto role = [&rng] { return static_cast<MemberRole>(rng.index(3)); };
  auto& vm_hosts = w.tenants[0].vm_hosts;

  std::vector<GroupId> ids;
  for (int gi = 0; gi < 4; ++gi) {
    std::vector<Member> members;
    for (std::uint32_t vm = 0; vm < vm_hosts.size(); ++vm) {
      if (rng.bernoulli(0.15)) members.push_back({vm_hosts[vm], vm, role()});
    }
    if (members.size() < 2) {
      members = {{vm_hosts[gi], static_cast<std::uint32_t>(gi), role()},
                 {vm_hosts[79 - gi], 79u - gi, MemberRole::kBoth}};
    }
    ids.push_back(w.controller.create_group(0, members));
  }
  if (degraded) w.controller.fail_spine(0);
  w.install(ids);

  // Threshold 8: diffs also compare against updates still pending.
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{8}};

  auto member_of = [&](GroupId id, std::uint32_t vm) {
    const auto& members = w.controller.group(id).members;
    return std::any_of(members.begin(), members.end(),
                       [vm](const Member& m) { return m.vm == vm; });
  };
  const auto& failures = w.controller.failures();
  std::size_t joins = 0, leaves = 0, fails = 0, switch_events = 0,
              checks = 0;
  for (int step = 0; step < 300; ++step) {
    const auto id = ids[rng.index(ids.size())];
    const auto& members = w.controller.group(id).members;
    const auto pick = rng.index(12);
    if (pick < 5) {
      const auto vm = static_cast<std::uint32_t>(rng.index(vm_hosts.size()));
      if (member_of(id, vm)) continue;
      cp.join(id, Member{vm_hosts[vm], vm, role()});
      ++joins;
    } else if (pick < 9) {
      if (members.size() <= 2) continue;
      const auto victim = members[rng.index(members.size())];
      cp.leave(id, victim.host, victim.vm);
      ++leaves;
    } else if (pick < 10) {
      // Fail a member host, unless that would empty some group.
      const auto host = members[rng.index(members.size())].host;
      const bool empties = std::any_of(ids.begin(), ids.end(), [&](GroupId g) {
        const auto& ms = w.controller.group(g).members;
        return std::all_of(ms.begin(), ms.end(),
                           [host](const Member& m) { return m.host == host; });
      });
      if (empties) continue;
      cp.host_fail(host);
      ++fails;
    } else if (pick < 11) {
      // Fail a spine, or restore it if it is down.
      const auto spine =
          static_cast<topo::SpineId>(rng.index(w.topology.num_spines()));
      if (failures.spine_failed(spine)) {
        cp.restore_spine(spine);
      } else {
        cp.fail_spine(spine);
      }
      ++switch_events;
    } else {
      const auto core =
          static_cast<topo::CoreId>(rng.index(w.topology.num_cores()));
      if (failures.core_failed(core)) {
        cp.restore_core(core);
      } else {
        cp.fail_core(core);
      }
      ++switch_events;
    }

    if (rng.bernoulli(0.5)) {
      cp.flush();
      ++checks;
      ASSERT_EQ(fabric_state_digest(w.fabric),
                compiled_state_digest(w.controller))
          << "step " << step;
    }
  }
  cp.flush();
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  EXPECT_GT(joins, 0u);
  EXPECT_GT(leaves, 0u);
  EXPECT_GT(fails, 0u);
  EXPECT_GT(switch_events, 0u);
  EXPECT_GT(checks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, ChangeSetCompleteness,
    ::testing::Combine(::testing::Values(EncoderKind::kElmo,
                                         EncoderKind::kBert,
                                         EncoderKind::kP3fa),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string{encoder_name(std::get<0>(info.param))} +
             (std::get<1>(info.param) ? "_Degraded" : "_Healthy");
    });

// Paper §3.3: a failure re-issues the upstream rules of the affected
// groups' senders and nothing else. With every member both sending and
// receiving, each reported sender's header flips between multipath and
// explicit ports, so for a spine or core failure and each restore the
// hypervisor updates the controller reports are exactly the flow updates
// the plane applies, and no s-rule moves.
TEST(ControlPlane, FailureAppliesExactlyTheReportedHypervisorUpdates) {
  StreamWorld w{EncoderKind::kElmo, 80};
  util::Rng rng{2029};
  std::vector<GroupId> ids;
  for (int gi = 0; gi < 40; ++gi) {
    std::vector<std::uint32_t> vms;
    for (std::uint32_t vm = 0; vm < 80; ++vm) {
      if (rng.bernoulli(0.06)) vms.push_back(vm);
    }
    if (vms.size() < 2) vms = {static_cast<std::uint32_t>(gi), 79u - gi};
    ids.push_back(w.make_group(vms));
  }
  w.install(ids);
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};

  auto expect_applied_as_reported =
      [&](const char* event, const Controller::FailureImpact& impact,
          std::uint64_t flows_before, std::uint64_t srules_before) {
        SCOPED_TRACE(event);
        cp.flush();
        const auto& st = cp.stats();
        EXPECT_GT(impact.hypervisor_updates(), 0u);
        EXPECT_EQ(st.flow_adds + st.flow_dels - flows_before,
                  impact.hypervisor_updates());
        EXPECT_EQ(st.leaf_srule_adds + st.leaf_srule_dels +
                      st.spine_srule_adds + st.spine_srule_dels,
                  srules_before);
        EXPECT_EQ(fabric_state_digest(w.fabric),
                  compiled_state_digest(w.controller));
      };
  auto flows = [&] { return cp.stats().flow_adds + cp.stats().flow_dels; };
  auto srules = [&] {
    const auto& st = cp.stats();
    return st.leaf_srule_adds + st.leaf_srule_dels + st.spine_srule_adds +
           st.spine_srule_dels;
  };

  const auto spine = w.topology.spine_at(1, 0);
  auto before = flows();
  auto impact = cp.fail_spine(spine);
  expect_applied_as_reported("fail_spine", impact, before, srules());
  before = flows();
  impact = cp.restore_spine(spine);
  expect_applied_as_reported("restore_spine", impact, before, srules());

  const auto core = w.topology.core_at(1, 0);
  before = flows();
  impact = cp.fail_core(core);
  expect_applied_as_reported("fail_core", impact, before, srules());
  before = flows();
  impact = cp.restore_core(core);
  expect_applied_as_reported("restore_core", impact, before, srules());
  EXPECT_EQ(cp.stats().switch_events, 4u);
}

TEST(ControlPlane, RejectsZeroFlushThreshold) {
  StreamWorld w;
  EXPECT_THROW(
      (ControlPlane{w.controller, w.fabric, ControlPlaneOptions{0}}),
      std::invalid_argument);
}

// The headline equivalence property, across all three encoders: N streamed
// events with delta installs leave the fabric byte-identical (digest-equal)
// to a fresh world where the FINAL membership is batch-created and
// batch-installed.
class StreamEquivalence : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(StreamEquivalence, StreamedDeltasMatchBatchInstallOfFinalState) {
  const auto kind = GetParam();
  StreamWorld w{kind, 80};

  std::vector<GroupId> ids;
  ids.push_back(w.make_group(std::vector<std::uint32_t>{0, 4, 8, 12}));
  ids.push_back(w.make_group(std::vector<std::uint32_t>{1, 20, 33, 47, 60}));
  ids.push_back(w.make_group(std::vector<std::uint32_t>{2, 6, 70}));
  w.install(ids);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{8}};

  // Drive a few hundred churn events through the plane (the simulator keeps
  // its own membership mirror and checks leave-by-(host, vm) semantics).
  ChurnSimulator churn{w.controller, w.tenants, ids};
  churn.set_driver(&cp);
  util::Rng rng{2024};
  for (int i = 0; i < 400; ++i) churn.step(2, rng);
  cp.flush();

  // Fresh world: batch-create the final membership in a new controller so
  // encodings are computed from scratch, then install directly.
  StreamWorld fresh{kind, 80};
  for (std::size_t gi = 0; gi < ids.size(); ++gi) {
    const auto& members = w.controller.group(ids[gi]).members;
    const auto id = fresh.controller.create_group(0, members);
    fresh.install(std::array{id});
  }

  EXPECT_EQ(fabric_state_digest(w.fabric), fabric_state_digest(fresh.fabric))
      << "streamed world diverged from batch install";
  EXPECT_GT(cp.stats().events, 0u);
  EXPECT_GT(cp.stats().updates_applied, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, StreamEquivalence,
                         ::testing::Values(EncoderKind::kElmo,
                                           EncoderKind::kBert,
                                           EncoderKind::kP3fa),
                         [](const auto& info) {
                           return encoder_name(info.param);
                         });

// A world for the sync tests: every encoder, healthy or degraded (legacy
// leaves, which keep p-rules in sender headers, and a failed spine 0, which
// re-routes them), and six random groups of every member role.
struct SyncWorld : StreamWorld {
  SyncWorld(EncoderKind kind, bool degraded) : StreamWorld{kind, 80} {
    if (degraded) {
      std::vector<bool> legacy(topology.num_leaves(), false);
      for (std::size_t l = 1; l < legacy.size(); l += 2) legacy[l] = true;
      controller.set_legacy_leaves(legacy);
      for (topo::LeafId l = 0; l < legacy.size(); ++l) {
        if (legacy[l]) fabric.leaf(l).set_legacy(true);
      }
    }
    util::Rng rng{degraded ? 91u : 90u};
    const auto& vm_hosts = tenants[0].vm_hosts;
    for (int gi = 0; gi < 6; ++gi) {
      std::vector<Member> members;
      for (std::uint32_t vm = 0; vm < 74; ++vm) {  // 74..79 join below
        if (rng.bernoulli(0.2)) {
          members.push_back(
              {vm_hosts[vm], vm, static_cast<MemberRole>(rng.index(3))});
        }
      }
      members.push_back({vm_hosts[79 - gi], 79u - gi, MemberRole::kBoth});
      ids.push_back(controller.create_group(0, members));
    }
    if (degraded) {
      controller.fail_spine(0);
      fabric.spine(0).set_down(true);
    }
  }

  std::vector<GroupId> ids;
};

// Every installed rule of `fabric` in table order: each hypervisor's flows,
// then each leaf's and each spine's s-rules.
std::vector<p4rt::Update> installed_rules(const sim::Fabric& fabric) {
  std::vector<p4rt::Update> rules;
  const auto& t = fabric.topology();
  for (topo::HostId h = 0; h < t.num_hosts(); ++h) {
    for (const auto& [addr, flow] : fabric.hypervisor(h).flows()) {
      auto& u = rules.emplace_back();
      u.group.value = addr;
      u.host = h;
      u.vni = flow.vni;
      u.local_vms = flow.local_vms;
      u.elmo_header = flow.elmo_header;
    }
  }
  auto srules = [&](const dp::NetworkSwitch& sw, topo::Layer layer,
                    std::uint32_t id) {
    for (const auto& [addr, ports] : sw.srules()) {
      auto& u = rules.emplace_back();
      u.kind = p4rt::UpdateKind::kSRuleAdd;
      u.group.value = addr;
      u.layer = layer;
      u.switch_id = id;
      u.ports = ports;
    }
  };
  for (topo::LeafId l = 0; l < t.num_leaves(); ++l) {
    srules(fabric.leaf(l), topo::Layer::kLeaf, l);
  }
  for (topo::SpineId s = 0; s < t.num_spines(); ++s) {
    srules(fabric.spine(s), topo::Layer::kSpine, s);
  }
  return rules;
}

// ControlPlane::sync for every encoder, healthy and degraded, at flush
// thresholds 1 and 64.
class ControlPlaneSync : public ::testing::TestWithParam<
                             std::tuple<EncoderKind, bool, std::size_t>> {};

// On an empty fabric a sync is the bulk install: the fabric holds exactly
// the compiled rules, in the same table order as an install_group loop
// (which pins GroupTable entry order), flushed in batches of at least
// flush_threshold updates between groups.
TEST_P(ControlPlaneSync, EmptyFabricSyncEqualsInstallLoop) {
  const auto [kind, degraded, threshold] = GetParam();
  SyncWorld w{kind, degraded};
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{threshold}};
  const auto applied = cp.sync(w.ids);

  sim::Fabric reference{w.topology};
  for (const auto id : w.ids) reference.install_group(w.controller, id);
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  EXPECT_EQ(installed_rules(w.fabric), installed_rules(reference));

  // Flushes land between groups once threshold updates are pending.
  std::size_t rules = 0, batches = 0, pending = 0;
  for (const auto id : w.ids) {
    const auto n = p4rt::compile_install(w.controller, id).size();
    rules += n;
    pending += n;
    if (pending >= threshold) {
      ++batches;
      pending = 0;
    }
  }
  if (pending > 0) ++batches;
  const auto& st = cp.stats();
  EXPECT_EQ(applied, rules);
  EXPECT_EQ(st.updates_applied, rules);
  EXPECT_EQ(st.rules_compiled, rules);
  EXPECT_EQ(st.batches_encoded, batches);
  EXPECT_EQ(cp.pending(), 0u);
  // A sync is not an event.
  EXPECT_EQ(st.events, 0u);
  EXPECT_EQ(st.clean_events, 0u);
  EXPECT_EQ(st.install_lag_seconds.count(), 0u);
}

// A sync repairs what drifted, and only that: a stale flow at a host with no
// member, a stale s-rule at a leaf the group does not use, a corrupted
// sender header and a dropped s-rule, each in a different group, cost
// exactly four updates. A second sync finds nothing to do.
TEST_P(ControlPlaneSync, RepairsExactlyTheSeededFaults) {
  const auto [kind, degraded, threshold] = GetParam();
  SyncWorld w{kind, degraded};
  w.install(w.ids);
  ASSERT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));

  using Rules = std::vector<p4rt::Update>;
  std::vector<Rules> compiled;
  for (const auto id : w.ids) {
    compiled.push_back(p4rt::compile_install(w.controller, id));
  }
  const auto leaf_srule = [](const Rules& rules) {
    return std::find_if(rules.begin(), rules.end(), [](const auto& u) {
      return u.kind == p4rt::UpdateKind::kSRuleAdd &&
             u.layer == topo::Layer::kLeaf;
    });
  };
  const auto sender_flow = [](const Rules& rules) {
    return std::find_if(rules.begin(), rules.end(), [](const auto& u) {
      return u.kind == p4rt::UpdateKind::kHypervisorFlowAdd &&
             !u.elmo_header.empty();
    });
  };
  const auto holds_flow = [](const Rules& rules, topo::HostId host) {
    return std::any_of(rules.begin(), rules.end(), [&](const auto& u) {
      return u.kind == p4rt::UpdateKind::kHypervisorFlowAdd && u.host == host;
    });
  };
  const auto holds_leaf = [](const Rules& rules, topo::LeafId leaf) {
    return std::any_of(rules.begin(), rules.end(), [&](const auto& u) {
      return u.kind == p4rt::UpdateKind::kSRuleAdd &&
             u.layer == topo::Layer::kLeaf && u.switch_id == leaf;
    });
  };

  // A stale flow of group 0 at a host none of its members lives on.
  {
    auto stale = compiled[0].front();
    ASSERT_EQ(stale.kind, p4rt::UpdateKind::kHypervisorFlowAdd);
    topo::HostId host = 0;
    while (holds_flow(compiled[0], host)) ++host;
    stale.host = host;
    w.fabric.apply(stale);
  }
  // A stale s-rule of the first group with a leaf s-rule, at a leaf it does
  // not use.
  std::size_t with_srule = 0;
  while (with_srule < w.ids.size() &&
         leaf_srule(compiled[with_srule]) == compiled[with_srule].end()) {
    ++with_srule;
  }
  ASSERT_LT(with_srule, w.ids.size());
  {
    auto stale = *leaf_srule(compiled[with_srule]);
    topo::LeafId leaf = 0;
    while (holds_leaf(compiled[with_srule], leaf)) ++leaf;
    ASSERT_LT(leaf, w.topology.num_leaves());
    stale.switch_id = leaf;
    w.fabric.apply(stale);
  }
  // A flipped header byte at a sender of the next group with one.
  std::size_t with_sender = with_srule + 1;
  while (with_sender < w.ids.size() &&
         sender_flow(compiled[with_sender]) == compiled[with_sender].end()) {
    ++with_sender;
  }
  ASSERT_LT(with_sender, w.ids.size());
  {
    auto corrupted = *sender_flow(compiled[with_sender]);
    corrupted.elmo_header[corrupted.elmo_header.size() / 2] ^= 0x10;
    w.fabric.apply(corrupted);
  }
  // A dropped s-rule of the last group with one.
  std::size_t dropped = w.ids.size() - 1;
  while (dropped > with_sender &&
         leaf_srule(compiled[dropped]) == compiled[dropped].end()) {
    --dropped;
  }
  ASSERT_GT(dropped, with_sender);
  {
    auto removal = *leaf_srule(compiled[dropped]);
    removal.kind = p4rt::UpdateKind::kSRuleDel;
    removal.ports = {};
    w.fabric.apply(removal);
  }
  ASSERT_NE(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{threshold}};
  EXPECT_EQ(cp.sync(w.ids), 4u);
  const auto& st = cp.stats();
  EXPECT_EQ(st.flow_adds, 1u);         // the corrupted header
  EXPECT_EQ(st.flow_dels, 1u);         // the stale flow
  EXPECT_EQ(st.leaf_srule_adds, 1u);   // the dropped s-rule
  EXPECT_EQ(st.leaf_srule_dels, 1u);   // the stale s-rule
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  EXPECT_EQ(cp.sync(w.ids), 0u);
  EXPECT_EQ(st.updates_applied, 4u);
}

// A removed group is synced away: no flow or s-rule under its address
// remains, while the live groups synced with it keep theirs. That holds
// for a group whose last join is still pending when it is removed, too.
TEST_P(ControlPlaneSync, RemovedGroupLeavesNoRule) {
  const auto [kind, degraded, threshold] = GetParam();
  SyncWorld w{kind, degraded};
  w.install(w.ids);
  const auto rules_at = [&](GroupId id) {
    const auto address = net::Ipv4Address::multicast_group(id).value;
    const auto installed = installed_rules(w.fabric);
    return static_cast<std::size_t>(
        std::count_if(installed.begin(), installed.end(), [&](const auto& u) {
          return u.group.value == address;
        }));
  };
  const auto removed = w.ids[2];
  const auto rules = p4rt::compile_install(w.controller, removed).size();
  ASSERT_EQ(rules_at(removed), rules);

  w.controller.remove_group(removed);
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{threshold}};
  EXPECT_EQ(cp.sync(w.ids), rules);  // one delete per installed rule
  EXPECT_EQ(rules_at(removed), 0u);
  EXPECT_EQ(cp.stats().flow_adds + cp.stats().leaf_srule_adds +
                cp.stats().spine_srule_adds,
            0u);
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));

  // A join to a host with no member, then the removal before any flush.
  ControlPlane batching{w.controller, w.fabric, ControlPlaneOptions{100000}};
  const auto joined = w.ids[3];
  const auto& vm_hosts = w.tenants[0].vm_hosts;
  std::uint32_t vm = 0;
  while (std::any_of(w.controller.group(joined).members.begin(),
                     w.controller.group(joined).members.end(),
                     [&](const Member& m) { return m.host == vm_hosts[vm]; })) {
    ++vm;
  }
  batching.join(joined, Member{vm_hosts[vm], vm, MemberRole::kBoth});
  ASSERT_GT(batching.pending(), 0u);
  w.controller.remove_group(joined);
  batching.sync(w.ids);
  EXPECT_EQ(rules_at(joined), 0u);
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, ControlPlaneSync,
    ::testing::Combine(::testing::Values(EncoderKind::kElmo,
                                         EncoderKind::kBert,
                                         EncoderKind::kP3fa),
                       ::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{64})),
    [](const auto& info) {
      return std::string{encoder_name(std::get<0>(info.param))} +
             (std::get<1>(info.param) ? "_Degraded" : "_Healthy") +
             "_Flush" + std::to_string(std::get<2>(info.param));
    });

// Rejected calls change nothing. Random valid joins, leaves, host and
// switch failures and restores, and syncs stream through a plane, mixed
// with calls the controller rejects: duplicate joins, unknown or removed
// groups, leaves of non-members, hosts or switches outside the topology,
// and group creations with a duplicate member or a host outside. Each rejected call must throw and leave the controller image,
// its last change set, the s-rule occupancy, the pending updates, the
// plane's stats and the installed state as they were.
TEST(ControlPlane, RejectedCallsChangeNothing) {
  SyncWorld w{EncoderKind::kElmo, /*degraded=*/false};
  const auto removed = w.controller.create_group(
      0, std::vector<Member>{{w.tenants[0].vm_hosts[0], 0, MemberRole::kBoth}});
  w.install(w.ids);
  w.controller.remove_group(removed);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{16}};
  const auto& t = w.topology;
  const auto& vm_hosts = w.tenants[0].vm_hosts;
  const auto occupancy = [&] {
    auto& space = w.controller.srule_space();
    std::vector<std::size_t> used;
    for (topo::LeafId l = 0; l < t.num_leaves(); ++l) {
      used.push_back(space.leaf_occupancy(l));
    }
    for (topo::SpineId s = 0; s < t.num_spines(); ++s) {
      used.push_back(space.spine_occupancy(s));
    }
    return used;
  };
  struct State {
    std::vector<std::uint8_t> image;
    RuleSlots last_change;
    std::vector<std::size_t> occupancy;
    std::size_t pending;
    std::vector<std::uint64_t> stats;
    std::size_t lag_samples;
    std::uint64_t digest;
  };
  const auto state = [&] {
    const auto& last = w.controller.last_change();
    return State{snapshot(w.controller), last,           occupancy(),
                 cp.pending(),           counters(cp.stats()),
                 cp.stats().install_lag_seconds.count(),
                 fabric_state_digest(w.fabric)};
  };
  const auto expect_same = [](const State& a, const State& b) {
    EXPECT_EQ(a.image, b.image);
    EXPECT_EQ(a.last_change.hosts, b.last_change.hosts);
    EXPECT_EQ(a.last_change.srules, b.last_change.srules);
    EXPECT_EQ(a.occupancy, b.occupancy);
    EXPECT_EQ(a.pending, b.pending);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.lag_samples, b.lag_samples);
    EXPECT_EQ(a.digest, b.digest);
  };
  const auto member_of = [&](GroupId id, std::uint32_t vm) {
    const auto& members = w.controller.group(id).members;
    return std::find_if(members.begin(), members.end(),
                        [vm](const Member& m) { return m.vm == vm; }) !=
           members.end();
  };

  // Whether failing `host` would leave some group without members.
  const auto empties = [&](topo::HostId host) {
    return std::any_of(w.ids.begin(), w.ids.end(), [&](GroupId g) {
      const auto& ms = w.controller.group(g).members;
      return std::all_of(ms.begin(), ms.end(),
                         [host](const Member& m) { return m.host == host; });
    });
  };

  util::Rng rng{2032};
  std::size_t valid = 0, rejected = 0;
  for (int step = 0; step < 400; ++step) {
    const auto id = w.ids[rng.index(w.ids.size())];
    const auto vm = static_cast<std::uint32_t>(rng.index(vm_hosts.size()));
    const auto& members = w.controller.group(id).members;
    const auto pick = rng.index(18);
    if (pick < 7) {
      // A valid call.
      if (pick < 2 && !member_of(id, vm)) {
        cp.join(id, Member{vm_hosts[vm], vm, MemberRole::kBoth});
      } else if (pick < 4 && members.size() > 2) {
        const auto victim = members[rng.index(members.size())];
        cp.leave(id, victim.host, victim.vm);
      } else if (pick == 4 && !empties(members[0].host)) {
        cp.host_fail(members[0].host);
      } else if (pick == 5) {
        const auto spine = static_cast<topo::SpineId>(
            rng.index(t.num_spines()));
        if (w.controller.failures().spine_failed(spine)) {
          cp.restore_spine(spine);
        } else {
          cp.fail_spine(spine);
        }
      } else {
        cp.sync(w.ids);
        EXPECT_EQ(fabric_state_digest(w.fabric),
                  compiled_state_digest(w.controller))
            << "step " << step;
      }
      ++valid;
      continue;
    }

    // A call the controller rejects.
    const auto before = state();
    const auto bad_host = static_cast<topo::HostId>(t.num_hosts() +
                                                    rng.index(4));
    switch (pick) {
      case 7: {  // a (host, vm) pair already in the group
        const auto& m = members[rng.index(members.size())];
        EXPECT_THROW(cp.join(id, Member{m.host, m.vm, MemberRole::kReceiver}),
                     std::invalid_argument);
        break;
      }
      case 8:
        EXPECT_THROW(cp.join(removed, Member{vm_hosts[vm], vm,
                                             MemberRole::kBoth}),
                     std::out_of_range);
        break;
      case 9:
        EXPECT_THROW(cp.leave(1000 + vm, vm_hosts[vm], vm),
                     std::out_of_range);
        break;
      case 10: {  // a VM that is not a member
        std::uint32_t stranger = 100;
        while (member_of(id, stranger)) ++stranger;
        EXPECT_THROW(cp.leave(id, vm_hosts[vm], stranger),
                     std::invalid_argument);
        break;
      }
      case 11:
        EXPECT_THROW(cp.join(id, Member{bad_host, 200, MemberRole::kBoth}),
                     std::out_of_range);
        break;
      case 12:
        EXPECT_THROW(cp.host_fail(bad_host), std::out_of_range);
        break;
      case 13:
        EXPECT_THROW(cp.fail_spine(static_cast<topo::SpineId>(
                         t.num_spines() + rng.index(4))),
                     std::out_of_range);
        break;
      case 14:
        EXPECT_THROW(cp.restore_core(static_cast<topo::CoreId>(
                         t.num_cores() + rng.index(4))),
                     std::out_of_range);
        break;
      case 15: {  // a new group listing one (host, vm) pair twice
        const std::vector<Member> twice{
            {vm_hosts[vm], vm, MemberRole::kBoth},
            {vm_hosts[vm], vm, MemberRole::kReceiver}};
        EXPECT_THROW(w.controller.create_group(0, twice),
                     std::invalid_argument);
        break;
      }
      case 16: {  // a bulk load whose last group has a host outside
        const std::vector<Member> good{{vm_hosts[vm], vm, MemberRole::kBoth}};
        const std::vector<Member> bad{{bad_host, 0, MemberRole::kBoth}};
        const std::vector<Controller::GroupSpec> specs{{0, good}, {0, bad}};
        EXPECT_THROW(w.controller.create_groups(specs), std::out_of_range);
        break;
      }
      default:
        EXPECT_THROW(cp.fail_core(static_cast<topo::CoreId>(
                         t.num_cores() + rng.index(4))),
                     std::out_of_range);
        break;
    }
    SCOPED_TRACE("step " + std::to_string(step));
    expect_same(state(), before);
    ++rejected;
  }
  cp.sync(w.ids);
  EXPECT_EQ(fabric_state_digest(w.fabric),
            compiled_state_digest(w.controller));
  EXPECT_GT(valid, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace elmo::stream
