#include "verify/differ.h"

#include <algorithm>
#include <exception>
#include <string>
#include <vector>

#include "elmo/evaluator.h"
#include "elmo/stream.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "p4rt/runtime.h"
#include "sim/fabric.h"
#include "verify/explain.h"
#include "verify/oracle.h"

namespace elmo::verify {

const char* to_string(Mutation mutation) {
  switch (mutation) {
    case Mutation::kNone:
      return "none";
    case Mutation::kClearPRuleBit:
      return "clear-prule-bit";
    case Mutation::kSetPRuleBit:
      return "set-prule-bit";
    case Mutation::kDropSRule:
      return "drop-srule";
    case Mutation::kDropLocalVm:
      return "drop-local-vm";
    case Mutation::kWrongSenderHeader:
      return "wrong-sender-header";
    case Mutation::kSkipMirrorUpdate:
      return "skip-mirror-update";
    case Mutation::kLeaveByHostOnly:
      return "leave-by-host-only";
    case Mutation::kDropFailureChanges:
      return "drop-failure-changes";
  }
  return "unknown";
}

namespace {

std::string str(std::uint64_t v) { return std::to_string(v); }

const char* role_name(MemberRole role) {
  switch (role) {
    case MemberRole::kSender:
      return "sender";
    case MemberRole::kReceiver:
      return "receiver";
    case MemberRole::kBoth:
      return "both";
  }
  return "?";
}

std::string describe(const Member& m) {
  return "(host=" + str(m.host) + ", vm=" + str(m.vm) + ", " +
         role_name(m.role) + ")";
}

class Runner {
 public:
  Runner(const Scenario& scenario, Mutation mutation,
         const RunObservability* observability)
      : sc_{scenario},
        mutation_{mutation},
        topo_{scenario.params},
        controller_{topo_, scenario.config},
        fabric_{topo_},
        // Threshold 1: every event's delta reaches the wire before the next
        // oracle diff, so a divergence is pinned to the event that caused it.
        plane_{controller_, fabric_,
               stream::ControlPlaneOptions{/*flush_threshold=*/1}},
        legacy_{scenario.legacy_leaves},
        oracle_{topo_, scenario.legacy_leaves} {
    if (!legacy_.empty()) legacy_.resize(topo_.num_leaves(), false);
    if (observability != nullptr) {
      registry_ = observability->registry;
      captures_ = observability->captures;
      plane_.set_tracer(observability->tracer);  // the plane and its fabric
      fabric_.set_recorder(observability->tracer);
    }
    // The runner always walks with provenance attached: every diff it
    // reports carries the send's annotated decision tree (DESIGN.md §10).
    fabric_.set_provenance(&prov_log_);
  }

  RunReport run() {
    try {
      setup();
      if (failed_) return finish();
      for (std::size_t i = 0; i < sc_.events.size(); ++i) {
        step(i, sc_.events[i]);
        ++report_.events_run;
        if (failed_) return finish();
      }
    } catch (const std::exception& ex) {
      fail(std::string{"exception: "} + ex.what());
      return finish();
    }
    report_.ok = true;
    report_.applied = applied_;
    return finish();
  }

 private:
  // The fabric's and the plane's totals flow into the registry exactly
  // once, whether the run passed, diverged, or threw.
  RunReport finish() {
    if (registry_ != nullptr) {
      accumulate_fabric_metrics(fabric_, *registry_);
      stream::accumulate_plane_metrics(plane_.stats(), *registry_);
    }
    return report_;
  }

  void fail(std::string message) {
    if (failed_) return;
    failed_ = true;
    report_.ok = false;
    report_.applied = applied_;
    report_.failure = std::move(message);
    // Non-empty only while a send is being checked: the diff carries that
    // send's annotated decision tree.
    report_.explanation = std::move(pending_explanation_);
    pending_explanation_.clear();
  }

  void setup() {
    if (!legacy_.empty()) {
      controller_.set_legacy_leaves(legacy_);
      for (topo::LeafId l = 0; l < topo_.num_leaves(); ++l) {
        if (legacy_[l]) fabric_.leaf(l).set_legacy(true);
      }
    }
    for (const auto& g : sc_.groups) {
      ids_.push_back(controller_.create_group(
          g.tenant, std::span<const Member>{g.members}));
      oracle_.create_group(g.members);
    }
    for (const auto id : ids_) {
      fabric_.install_group(controller_, id);
      plane_.track_group(id);
    }
    recompile_all();
    select_mutation_target();
    seed_fault();
    diff_membership("after setup");
    if (failed_) return;
    diff_fabric_state("after setup");
  }

  void step(std::size_t index, const Event& ev) {
    const std::string at = "event #" + str(index);
    switch (ev.kind) {
      case EventKind::kJoin: {
        const auto id = ids_.at(ev.group_index);
        const bool stale = mutation_ == Mutation::kSkipMirrorUpdate;
        if (stale) {
          // Behind the plane's back: the fabric goes stale.
          controller_.join(id, ev.member);
          applied_ = true;
        } else {
          plane_.join(id, ev.member);
          sync();
        }
        recompile(ev.group_index);
        oracle_.join(ev.group_index, ev.member);
        diff_membership(at);
        if (failed_) return;
        if (!stale) diff_fabric_state(at);
        break;
      }
      case EventKind::kLeave: {
        const auto id = ids_.at(ev.group_index);
        const bool stale = mutation_ == Mutation::kSkipMirrorUpdate;
        Member leaver = ev.member;
        if (mutation_ == Mutation::kLeaveByHostOnly) {
          // The pre-fix churn bug: leave by host alone removes the FIRST
          // member on the host, which under co-location may not be the VM
          // that actually left.
          const auto& members = controller_.group(id).members;
          const auto first = std::find_if(
              members.begin(), members.end(),
              [&](const Member& m) { return m.host == ev.member.host; });
          // The wrong victim's leave streams through the plane, so the
          // harness fault stays upstream of it.
          if (first != members.end()) leaver = *first;
          if (leaver.vm != ev.member.vm) applied_ = true;
        }
        if (stale) {
          controller_.leave(id, leaver.host, leaver.vm);
          applied_ = true;
        } else {
          plane_.leave(id, leaver.host, leaver.vm);
          sync();
        }
        recompile(ev.group_index);
        if (!oracle_.leave(ev.group_index, ev.member.host, ev.member.vm)) {
          fail(at + ": oracle mirror missing member " + describe(ev.member));
          return;
        }
        diff_membership(at);
        if (failed_) return;
        if (!stale) diff_fabric_state(at);
        break;
      }
      case EventKind::kFailSpine:
        switch_event(&Controller::fail_spine,
                     &stream::ControlPlane::fail_spine, ev.switch_id);
        oracle_.fail_spine(ev.switch_id);
        fabric_.spine(ev.switch_id).set_down(true);
        resync_headers();
        break;
      case EventKind::kFailCore:
        switch_event(&Controller::fail_core, &stream::ControlPlane::fail_core,
                     ev.switch_id);
        oracle_.fail_core(ev.switch_id);
        fabric_.core(ev.switch_id).set_down(true);
        resync_headers();
        break;
      case EventKind::kRestoreSpine:
        switch_event(&Controller::restore_spine,
                     &stream::ControlPlane::restore_spine, ev.switch_id);
        oracle_.restore_spine(ev.switch_id);
        fabric_.spine(ev.switch_id).set_down(false);
        resync_headers();
        break;
      case EventKind::kRestoreCore:
        switch_event(&Controller::restore_core,
                     &stream::ControlPlane::restore_core, ev.switch_id);
        oracle_.restore_core(ev.switch_id);
        fabric_.core(ev.switch_id).set_down(false);
        resync_headers();
        break;
      case EventKind::kSend:
        check_send(index, ev.group_index, ev.sender, at);
        break;
      case EventKind::kHostFail: {
        const auto host = ev.member.host;
        const bool stale = mutation_ == Mutation::kSkipMirrorUpdate;
        // The oracle mirror's memberships on the host, which it evicts by
        // itself: the controller's eviction is what it referees.
        std::vector<std::pair<std::size_t, std::vector<Member>>> affected;
        for (std::size_t gi = 0; gi < ids_.size(); ++gi) {
          std::vector<Member> on_host;
          for (const auto& m : oracle_.members(gi)) {
            if (m.host == host) on_host.push_back(m);
          }
          if (!on_host.empty()) affected.emplace_back(gi, std::move(on_host));
        }
        if (stale) {
          applied_ = controller_.host_fail(host).groups_affected() > 0 ||
                     applied_;
        } else {
          plane_.host_fail(host);
          sync();
        }
        for (const auto& [gi, members] : affected) {
          recompile(gi);
          for (const auto& m : members) {
            if (!oracle_.leave(gi, m.host, m.vm)) {
              fail(at + ": oracle mirror missing member " + describe(m));
              return;
            }
          }
        }
        diff_membership(at);
        if (failed_) return;
        if (!stale) diff_fabric_state(at);
        break;
      }
    }
  }

  // Lands the plane's queued deltas, then re-seeds the fabric-side fault so
  // an install cannot silently heal it.
  void sync() {
    plane_.flush();
    seed_fault();
  }

  // A spine or core failure or restore streams through the plane, which
  // diffs only the change sets the controller returns, unless the
  // drop-failure-changes mutation hands the event to the controller alone:
  // then no re-routed header reaches the fabric.
  template <typename ControllerCall, typename PlaneCall>
  void switch_event(ControllerCall controller_call, PlaneCall plane_call,
                    std::uint32_t id) {
    if (mutation_ == Mutation::kDropFailureChanges) {
      const auto impact = (controller_.*controller_call)(id);
      applied_ = applied_ || impact.groups_affected() > 0;
    } else {
      (plane_.*plane_call)(id);
    }
  }

  // After a failure or restore: lands the streamed deltas, then checks the
  // fabric against every group's re-folded term. The re-fold covers every
  // group, not only the change sets', so the referee stays independent of
  // the sets the plane diffed by.
  void resync_headers() {
    sync();
    recompile_all();
    diff_fabric_state("after failure resync");
  }

  // Re-derives group `gi`'s term of the expected digest after an event
  // changed its membership or encoding. The term folds the full
  // p4rt::compile_install, never a compile filtered to a change set, so the
  // referee stays independent of the change sets the plane diffs by.
  void recompile(std::size_t gi) {
    compiled_total_ -= compiled_terms_[gi];
    compiled_terms_[gi] =
        stream::rules_digest(p4rt::compile_install(controller_, ids_[gi]));
    compiled_total_ += compiled_terms_[gi];
  }

  // Failures and restores re-route sender headers of any group.
  void recompile_all() {
    compiled_terms_.resize(ids_.size(), 0);
    for (std::size_t gi = 0; gi < ids_.size(); ++gi) recompile(gi);
  }

  // Continuous churn oracle: after every membership or failure event, the
  // live fabric's installed state must digest-equal the compiled rules of
  // the controller's current encodings (the sum of the per-group terms,
  // equal to stream::compiled_state_digest), moved by the seeded fault's
  // edit (so a mutation is left for the send checks to catch). Catches
  // stale rules, missed deltas, leaked state and faults in the switch
  // tables that the send-level differ would only notice if a later send
  // happened to traverse them.
  void diff_fabric_state(const std::string& at) {
    if (failed_) return;
    if (stream::fabric_state_digest(fabric_) !=
        compiled_total_ + fault_shift_) {
      fail(at + ": installed fabric state diverges from the compiled rules "
                "of the controller's current encodings");
    }
  }

  void diff_membership(const std::string& at) {
    for (std::size_t gi = 0; gi < ids_.size(); ++gi) {
      auto ctrl = controller_.group(ids_[gi]).members;
      auto mirror = oracle_.members(gi);
      const auto by_host_vm = [](const Member& a, const Member& b) {
        return a.host != b.host ? a.host < b.host : a.vm < b.vm;
      };
      std::sort(ctrl.begin(), ctrl.end(), by_host_vm);
      std::sort(mirror.begin(), mirror.end(), by_host_vm);
      if (ctrl.size() != mirror.size()) {
        fail(at + ": group " + str(gi) + " membership desync: controller has " +
             str(ctrl.size()) + " members, oracle mirror has " +
             str(mirror.size()));
        return;
      }
      for (std::size_t i = 0; i < ctrl.size(); ++i) {
        if (ctrl[i].host != mirror[i].host || ctrl[i].vm != mirror[i].vm ||
            ctrl[i].role != mirror[i].role) {
          fail(at + ": group " + str(gi) +
               " membership desync: controller holds " + describe(ctrl[i]) +
               " where oracle mirror holds " + describe(mirror[i]));
          return;
        }
      }
    }
  }

  void check_send(std::size_t event_index, std::size_t gi,
                  topo::HostId sender, const std::string& at) {
    const auto id = ids_.at(gi);
    const auto& g = controller_.group(id);
    const auto ex = oracle_.expect(gi, g.encoding, sender);
    const std::string ctx =
        at + ": send group " + str(gi) + " from host " + str(sender);

    prov_log_.clear();
    const auto res = fabric_.send(sender, g.address, std::size_t{64});
    ++report_.sends_checked;

    // The analytic evaluator's view of the same send (the group's hash and
    // the failures its senders route around), computed up front so the
    // provenance capture can carry it. A failure off the group's plane is
    // not passed: the installed header keeps multipath there, and a flow
    // that still met the dead switch fails the oracle's reachability check.
    const TrafficEvaluator evaluator{topo_};
    const auto rep = evaluator.evaluate(
        *g.tree, g.encoding, sender, 64, topo::group_hash(g.address),
        &controller_.route_failures(id),
        legacy_.empty() ? nullptr : &legacy_);

    // Join the walk's decision tree against the oracle: any failure below
    // attaches this explanation to the report (see fail()).
    SendExplanation expl;
    const bool have_trace = !prov_log_.empty();
    if (have_trace) {
      expl = explain_send(prov_log_.last(), ex);
      pending_explanation_ = expl.render();
      if (captures_ != nullptr) {
        SendCapture capture;
        capture.event_index = event_index;
        capture.group_index = gi;
        capture.sender = sender;
        capture.explanation = expl;
        capture.evaluator_reached = rep.delivery.members_reached;
        capture.evaluator_duplicates = rep.delivery.duplicate_deliveries;
        capture.evaluator_spurious = rep.delivery.spurious_deliveries;
        captures_->push_back(std::move(capture));
      }
    }

    // 1. Ideal receiver set: every expected host got a copy; exactly one,
    //    and none back to the sender, unless failures legitimize duplicates.
    for (const auto& [host, vms] : ex.expected_hosts) {
      const auto it = res.host_copies.find(host);
      const std::size_t copies = it == res.host_copies.end() ? 0 : it->second;
      if (copies == 0) {
        fail(ctx + ": member host " + str(host) + " (" + str(vms) +
             " receiving VMs) got no copy");
        return;
      }
      if (!ex.duplicates_allowed && copies != 1) {
        fail(ctx + ": member host " + str(host) + " got " + str(copies) +
             " copies with no failures active");
        return;
      }
    }
    if (!ex.duplicates_allowed) {
      for (const auto& [host, copies] : res.host_copies) {
        if (copies > 1) {
          fail(ctx + ": host " + str(host) + " got " + str(copies) +
               " copies with no failures active");
          return;
        }
      }
      if (res.host_copies.contains(sender)) {
        fail(ctx + ": sender host received its own packet");
        return;
      }
    }

    // 2. Per-VM fan-out: each copy must reach exactly the receiving VMs the
    //    controller mirror places on that host.
    std::size_t want_vms = 0;
    for (const auto& [host, copies] : res.host_copies) {
      want_vms += copies * oracle_.receiving_vms_on(gi, host);
    }
    if (res.vm_deliveries != want_vms) {
      fail(ctx + ": " + str(res.vm_deliveries) + " VM deliveries, expected " +
           str(want_vms) + " (copies x mirrored receiving VMs)");
      return;
    }

    // 3. Clos diameter: leaf-spine-core-spine-leaf.
    if (res.max_hops > 5) {
      fail(ctx + ": packet took " + str(res.max_hops) + " switch hops");
      return;
    }

    // 4. Packet-level fabric vs analytic evaluator: total host copies and
    //    distinct members reached must agree bit-for-bit with the
    //    controller's current encoding.
    std::size_t fabric_copies = 0;
    for (const auto& [host, copies] : res.host_copies) fabric_copies += copies;
    const std::size_t evaluator_copies = rep.delivery.members_reached +
                                         rep.delivery.duplicate_deliveries +
                                         rep.delivery.spurious_deliveries;
    if (fabric_copies != evaluator_copies) {
      fail(ctx + ": fabric delivered " + str(fabric_copies) +
           " host copies, analytic evaluator predicts " +
           str(evaluator_copies));
      return;
    }
    if (rep.delivery.members_reached != ex.expected_hosts.size()) {
      fail(ctx + ": evaluator reached " + str(rep.delivery.members_reached) +
           " member hosts, oracle expects " + str(ex.expected_hosts.size()));
      return;
    }

    // 5. Provenance attribution vs analytic evaluator: the per-cause
    //    decomposition of the decision tree must sum to the same intended /
    //    excess split the evaluator predicts.
    if (have_trace) {
      if (expl.breakdown.intended != rep.delivery.members_reached) {
        fail(ctx + ": provenance attributes " + str(expl.breakdown.intended) +
             " intended copies, evaluator reached " +
             str(rep.delivery.members_reached) + " member hosts");
        return;
      }
      const std::size_t evaluator_excess = rep.delivery.duplicate_deliveries +
                                           rep.delivery.spurious_deliveries;
      if (expl.breakdown.total_redundant() != evaluator_excess) {
        fail(ctx + ": provenance attributes " +
             str(expl.breakdown.total_redundant()) +
             " redundant copies, evaluator predicts " + str(evaluator_excess) +
             " (duplicate + spurious)");
        return;
      }
    }

    pending_explanation_.clear();
  }

  // --- mutation machinery --------------------------------------------------

  // Picks the concrete fault site once, from the initial encodings. Bounds
  // are re-checked on every application because churn re-encodes groups.
  void select_mutation_target() {
    for (std::size_t gi = 0; gi < ids_.size() && !target_found_; ++gi) {
      const auto& g = controller_.group(ids_[gi]);
      switch (mutation_) {
        case Mutation::kClearPRuleBit: {
          // A set bit that is a real member host port of the matched leaf:
          // clearing it must lose a delivery (a redundancy-only bit would
          // not).
          const auto& rules = g.encoding.leaf.p_rules;
          for (std::size_t ri = 0; ri < rules.size() && !target_found_; ++ri) {
            for (const auto leaf_id : rules[ri].switch_ids) {
              const auto* entry = g.tree->find_leaf(leaf_id);
              if (entry == nullptr) continue;
              for (std::size_t p = 0; p < topo_.leaf_down_ports(); ++p) {
                if (rules[ri].bitmap.test(p) && entry->host_ports.test(p)) {
                  target_found_ = true;
                  target_gi_ = gi;
                  target_rule_ = ri;
                  target_port_ = p;
                  break;
                }
              }
              if (target_found_) break;
            }
          }
          break;
        }
        case Mutation::kSetPRuleBit: {
          const auto& rules = g.encoding.leaf.p_rules;
          for (std::size_t ri = 0; ri < rules.size() && !target_found_; ++ri) {
            for (std::size_t p = 0; p < topo_.leaf_down_ports(); ++p) {
              if (!rules[ri].bitmap.test(p)) {
                target_found_ = true;
                target_gi_ = gi;
                target_rule_ = ri;
                target_port_ = p;
                break;
              }
            }
          }
          break;
        }
        case Mutation::kDropSRule: {
          for (const auto& [leaf_id, bitmap] : g.encoding.leaf.s_rules) {
            if (bitmap.any()) {
              target_found_ = true;
              target_gi_ = gi;
              target_switch_ = leaf_id;
              break;
            }
          }
          break;
        }
        case Mutation::kDropLocalVm: {
          for (const auto& m : g.members) {
            if (can_receive(m.role)) {
              target_found_ = true;
              target_gi_ = gi;
              target_host_ = m.host;
              target_vm_ = m.vm;
              break;
            }
          }
          break;
        }
        case Mutation::kWrongSenderHeader: {
          for (const auto& s : g.members) {
            if (!can_send(s.role)) continue;
            for (const auto& m : g.members) {
              if (topo_.leaf_of_host(m.host) != topo_.leaf_of_host(s.host)) {
                target_found_ = true;
                target_gi_ = gi;
                target_host_ = s.host;   // victim sender
                target_other_ = m.host;  // header borrowed from here
                break;
              }
            }
            if (target_found_) break;
          }
          break;
        }
        default:
          return;  // event-driven mutations have no fabric-side target
      }
    }
  }

  // (Re-)seeds the fabric-side fault after setup and every sync, so an
  // install cannot silently heal it. The fault edits the target group's
  // compiled rules — a re-serialized header, an erased VM, a dropped s-rule
  // — and each edited rule reaches the live fabric through Fabric::apply.
  // A site the current encoding no longer has is left unedited.
  void seed_fault() {
    fault_shift_ = 0;
    if (!target_found_) return;
    const auto id = ids_.at(target_gi_);
    const auto& g = controller_.group(id);
    const auto compiled = p4rt::compile_install(controller_, id);
    auto rules = compiled;
    const auto find = [&rules](p4rt::UpdateKind kind, std::uint32_t target) {
      return std::find_if(rules.begin(), rules.end(), [&](const auto& u) {
        return u.kind == kind && (kind == p4rt::UpdateKind::kSRuleAdd
                                      ? u.layer == topo::Layer::kLeaf &&
                                            u.switch_id == target
                                      : u.host == target);
      });
    };
    switch (mutation_) {
      case Mutation::kClearPRuleBit:
      case Mutation::kSetPRuleBit: {
        if (target_rule_ >= g.encoding.leaf.p_rules.size()) return;
        GroupEncoding mutated = g.encoding;
        auto& bitmap = mutated.leaf.p_rules[target_rule_].bitmap;
        if (target_port_ >= bitmap.size()) return;
        bitmap.set(target_port_, mutation_ == Mutation::kSetPRuleBit);
        for (auto& u : rules) {
          if (u.elmo_header.empty()) continue;  // not a sender's flow
          const auto route =
              g.tree->sender_route(u.host, controller_.route_failures(id));
          u.elmo_header =
              controller_.encoder().codec().serialize(route.encoding, mutated);
        }
        break;
      }
      case Mutation::kDropSRule: {
        const auto srule = find(p4rt::UpdateKind::kSRuleAdd, target_switch_);
        if (srule != rules.end()) srule->kind = p4rt::UpdateKind::kSRuleDel;
        break;
      }
      case Mutation::kDropLocalVm: {
        const auto flow =
            find(p4rt::UpdateKind::kHypervisorFlowAdd, target_host_);
        if (flow != rules.end()) std::erase(flow->local_vms, target_vm_);
        break;
      }
      case Mutation::kWrongSenderHeader: {
        const auto flow =
            find(p4rt::UpdateKind::kHypervisorFlowAdd, target_host_);
        if (flow != rules.end()) {
          flow->elmo_header = controller_.header_for(id, target_other_);
        }
        break;
      }
      default:
        break;
    }
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (rules[i] == compiled[i]) continue;
      fabric_.apply(rules[i]);
      applied_ = true;
    }
    // A dropped rule became a delete, which folds to nothing.
    fault_shift_ = stream::rules_digest(rules) - stream::rules_digest(compiled);
  }

  const Scenario& sc_;
  Mutation mutation_;
  topo::ClosTopology topo_;
  Controller controller_;
  sim::Fabric fabric_;
  stream::ControlPlane plane_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::vector<SendCapture>* captures_ = nullptr;
  obs::ProvenanceLog prov_log_;
  std::string pending_explanation_;
  std::vector<bool> legacy_;
  DeliveryOracle oracle_;
  std::vector<GroupId> ids_;
  RunReport report_;
  bool failed_ = false;
  bool applied_ = false;

  bool target_found_ = false;
  std::size_t target_gi_ = 0;
  std::size_t target_rule_ = 0;
  std::size_t target_port_ = 0;
  std::uint32_t target_switch_ = 0;
  topo::HostId target_host_ = 0;
  topo::HostId target_other_ = 0;
  std::uint32_t target_vm_ = 0;
  // What the seeded fault's edit moves the installed-state digest by.
  std::uint64_t fault_shift_ = 0;
  // rules_digest(compile_install) of each group (parallel to ids_) and
  // their sum: stream::compiled_state_digest, updated per touched group.
  std::vector<std::uint64_t> compiled_terms_;
  std::uint64_t compiled_total_ = 0;
};

}  // namespace

RunReport run_scenario(const Scenario& scenario, Mutation mutation,
                       const RunObservability* observability) {
  Runner runner{scenario, mutation, observability};
  return runner.run();
}

}  // namespace elmo::verify
