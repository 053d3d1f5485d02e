#include "elmo/stream.h"

#include <algorithm>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>

namespace elmo::stream {
namespace {

// splitmix64's finalizer: every input bit moves every output bit, so the
// per-rule terms the digests sum do not cancel by accident.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Chains `fields` into a rule term that starts from its kind's tag.
std::uint64_t chain(std::uint64_t tag,
                    std::initializer_list<std::uint64_t> fields) {
  auto h = mix(tag);
  for (const auto v : fields) h = mix(h ^ v);
  return h;
}

// A flow's term. Its VMs enter as the sum of their mixes, a set and not a
// sequence (streamed joins append in event order, a batch install follows
// the final member order); its header as little-endian 8-byte words.
std::uint64_t flow_term(std::uint32_t group, topo::HostId host,
                        std::uint32_t vni,
                        std::span<const std::uint32_t> local_vms,
                        std::span<const std::uint8_t> header) {
  std::uint64_t vm_set = 0;
  for (const auto vm : local_vms) vm_set += mix(vm);
  auto h = chain(0xf10f, {group, host, vni, local_vms.size(), vm_set,
                          header.size()});
  for (std::size_t i = 0; i < header.size(); i += 8) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8 && i + b < header.size(); ++b) {
      word |= std::uint64_t{header[i + b]} << (8 * b);
    }
    h = mix(h ^ word);
  }
  return h;
}

std::uint64_t srule_term(std::uint32_t group, topo::Layer layer,
                         std::uint32_t switch_id,
                         const net::PortBitmap& ports) {
  auto h = chain(0x5e1e, {group, static_cast<std::uint64_t>(layer),
                          switch_id, ports.size()});
  for (const auto word : ports.words()) h = mix(h ^ word);
  return h;
}

// The one read-back of a fabric: calls on_flow(address, host, flow) for
// every hypervisor flow, ascending by host, then on_srule(address, layer,
// switch, ports) for every leaf s-rule and every spine s-rule, ascending by
// switch.
template <typename OnFlow, typename OnSRule>
void fold_rules(const sim::Fabric& fabric, OnFlow&& on_flow,
                OnSRule&& on_srule) {
  const auto& t = fabric.topology();
  for (topo::HostId h = 0; h < t.num_hosts(); ++h) {
    for (const auto& [addr, flow] : fabric.hypervisor(h).flows()) {
      on_flow(addr, h, flow);
    }
  }
  for (topo::LeafId l = 0; l < t.num_leaves(); ++l) {
    for (const auto& [addr, ports] : fabric.leaf(l).srules()) {
      on_srule(addr, topo::Layer::kLeaf, l, ports);
    }
  }
  for (topo::SpineId s = 0; s < t.num_spines(); ++s) {
    for (const auto& [addr, ports] : fabric.spine(s).srules()) {
      on_srule(addr, topo::Layer::kSpine, s, ports);
    }
  }
}

bool is_flow(const p4rt::Update& u) {
  return u.kind == p4rt::UpdateKind::kHypervisorFlowAdd ||
         u.kind == p4rt::UpdateKind::kHypervisorFlowDel;
}

bool is_add(const p4rt::Update& u) {
  return u.kind == p4rt::UpdateKind::kHypervisorFlowAdd ||
         u.kind == p4rt::UpdateKind::kSRuleAdd;
}

// The delete for a slot its group no longer has.
p4rt::Update removal(std::uint32_t group, topo::Layer layer,
                     std::uint32_t target) {
  p4rt::Update u;
  u.group.value = group;
  if (layer == topo::Layer::kHost) {
    u.kind = p4rt::UpdateKind::kHypervisorFlowDel;
    u.host = target;
  } else {
    u.kind = p4rt::UpdateKind::kSRuleDel;
    u.layer = layer;
    u.switch_id = target;
  }
  return u;
}

// The per-layer counter of an applied update's kind.
std::uint64_t& applied_counter(ControlPlaneStats& st, const p4rt::Update& u) {
  if (is_flow(u)) {
    return u.kind == p4rt::UpdateKind::kHypervisorFlowAdd ? st.flow_adds
                                                          : st.flow_dels;
  }
  const bool add = u.kind == p4rt::UpdateKind::kSRuleAdd;
  if (u.layer == topo::Layer::kLeaf) {
    return add ? st.leaf_srule_adds : st.leaf_srule_dels;
  }
  return add ? st.spine_srule_adds : st.spine_srule_dels;
}

// A control-lane span that closes when it leaves scope, on unwind too; a
// no-op without a tracer.
class ControlSpan {
 public:
  ControlSpan(obs::Tracer* tracer, const char* name, obs::TraceContext parent,
              std::initializer_list<obs::TraceAttr> attrs = {})
      : tracer_{tracer},
        ctx_{tracer == nullptr ? obs::TraceContext{}
                               : tracer->begin_span(name,
                                                    obs::TraceLane::kControl,
                                                    parent, attrs)} {}
  ControlSpan(const ControlSpan&) = delete;
  ControlSpan& operator=(const ControlSpan&) = delete;
  ~ControlSpan() {
    if (tracer_ != nullptr) tracer_->end_span(ctx_);
  }
  const obs::TraceContext& ctx() const noexcept { return ctx_; }

 private:
  obs::Tracer* tracer_;
  obs::TraceContext ctx_;
};

const char* install_span_name(p4rt::UpdateKind kind) {
  switch (kind) {
    case p4rt::UpdateKind::kHypervisorFlowAdd: return "install:flow_add";
    case p4rt::UpdateKind::kHypervisorFlowDel: return "install:flow_del";
    case p4rt::UpdateKind::kSRuleAdd: return "install:srule_add";
    case p4rt::UpdateKind::kSRuleDel: return "install:srule_del";
  }
  return "install";
}

// Install target: the host for flows, the physical switch for s-rules.
double install_target(const p4rt::Update& u) {
  return is_flow(u) ? static_cast<double>(u.host)
                    : static_cast<double>(u.switch_id);
}

}  // namespace

ControlPlane::ControlPlane(Controller& controller, sim::Fabric& fabric,
                           ControlPlaneOptions options)
    : controller_{&controller}, fabric_{&fabric}, options_{options} {
  if (options_.flush_threshold == 0) {
    throw std::invalid_argument{"ControlPlane: flush_threshold must be >= 1"};
  }
}

template <typename Call>
Controller::FailureImpact ControlPlane::run_event(
    const Event& event, std::initializer_list<obs::TraceAttr> attrs,
    Call&& call) {
  const auto ingested = std::chrono::steady_clock::now();
  Controller::FailureImpact impact;
  {
    const ControlSpan root{tracer_, event.root, {}, attrs};
    {
      const ControlSpan stage{tracer_, event.stage, root.ctx()};
      impact = call();
    }
    pending_event_times_.push_back(ingested);
    ++stats_.events;
    ++(stats_.*event.count);
    bool edited = false;
    {
      const ControlSpan diff{tracer_, "delta_diff", root.ctx()};
      event_ctx_ = root.ctx();
      for (const auto& [group, change] : impact.changes) {
        edited = diff_group(group, change) || edited;
      }
    }
    if (!edited) ++stats_.clean_events;
    if (tracer_ != nullptr && event.watch != Watch::kNone) {
      for (const auto& [group, change] : impact.changes) {
        arm_watch(event, group, root.ctx());
      }
    }
  }
  if (pending_.size() >= options_.flush_threshold) flush();
  return impact;
}

void ControlPlane::join(GroupId group, const Member& member) {
  const auto address = controller_->group(group).address.value;
  run_event({"churn:join", "reencode", &ControlPlaneStats::joins,
             Watch::kJoin, member.host},
            {{"group", static_cast<double>(address)},
             {"group_id", static_cast<double>(group)},
             {"host", static_cast<double>(member.host)},
             {"vm", static_cast<double>(member.vm)}},
            [&] {
              controller_->join(group, member);
              return Controller::FailureImpact{
                  {{group, controller_->last_change()}}};
            });
}

Member ControlPlane::leave(GroupId group, topo::HostId host, std::uint32_t vm) {
  const auto address = controller_->group(group).address.value;
  Member removed;
  run_event({"churn:leave", "reencode", &ControlPlaneStats::leaves,
             Watch::kLeave, host},
            {{"group", static_cast<double>(address)},
             {"group_id", static_cast<double>(group)},
             {"host", static_cast<double>(host)},
             {"vm", static_cast<double>(vm)}},
            [&] {
              removed = controller_->leave(group, host, vm);
              return Controller::FailureImpact{
                  {{group, controller_->last_change()}}};
            });
  return removed;
}

Controller::FailureImpact ControlPlane::host_fail(topo::HostId host) {
  return run_event({"churn:host_fail", "reencode",
                    &ControlPlaneStats::host_fails, Watch::kLeave, host},
                   {{"host", static_cast<double>(host)}},
                   [&] { return controller_->host_fail(host); });
}

Controller::FailureImpact ControlPlane::fail_spine(topo::SpineId spine) {
  return run_event({"churn:fail_spine", "reroute",
                    &ControlPlaneStats::switch_events},
                   {{"switch", static_cast<double>(spine)}},
                   [&] { return controller_->fail_spine(spine); });
}

Controller::FailureImpact ControlPlane::fail_core(topo::CoreId core) {
  return run_event({"churn:fail_core", "reroute",
                    &ControlPlaneStats::switch_events},
                   {{"switch", static_cast<double>(core)}},
                   [&] { return controller_->fail_core(core); });
}

Controller::FailureImpact ControlPlane::restore_spine(topo::SpineId spine) {
  return run_event({"churn:restore_spine", "reroute",
                    &ControlPlaneStats::switch_events},
                   {{"switch", static_cast<double>(spine)}},
                   [&] { return controller_->restore_spine(spine); });
}

Controller::FailureImpact ControlPlane::restore_core(topo::CoreId core) {
  return run_event({"churn:restore_core", "reroute",
                    &ControlPlaneStats::switch_events},
                   {{"switch", static_cast<double>(core)}},
                   [&] { return controller_->restore_core(core); });
}

void ControlPlane::arm_watch(const Event& event, GroupId group,
                             const obs::TraceContext& root) {
  const auto& g = controller_->group(group);
  const bool leave = event.watch == Watch::kLeave;
  const auto on_host = [&](const Member& m) { return m.host == event.host; };
  if (leave && std::any_of(g.members.begin(), g.members.end(), on_host)) {
    return;
  }
  fabric_->trace_watch(g.address, event.host, root, leave);
}

void ControlPlane::track_group(GroupId group) {
  (void)controller_->group(group);
}

std::size_t ControlPlane::sync(std::span<const GroupId> groups) {
  // The occupied slots under each synced address: one fold of the fabric,
  // plus the slots of updates still pending (a queued add of a group removed
  // since must be cancelled too). `index` maps an address to the first
  // position of its id in `groups`.
  std::vector<std::pair<std::uint32_t, std::size_t>> index;
  index.reserve(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    index.emplace_back(net::Ipv4Address::multicast_group(groups[i]).value, i);
  }
  std::sort(index.begin(), index.end());
  std::vector<RuleSlots> slots(groups.size());
  const auto occupied = [&](std::uint32_t addr, RuleSlot slot) {
    const auto it = std::lower_bound(index.begin(), index.end(),
                                     std::pair{addr, std::size_t{0}});
    if (it == index.end() || it->first != addr) return;
    auto& bucket = slots[it->second];
    if (slot.first == topo::Layer::kHost) {
      bucket.hosts.push_back(slot.second);
    } else {
      bucket.srules.push_back(slot);
    }
  };
  fold_rules(
      *fabric_,
      [&](std::uint32_t addr, topo::HostId host,
          const dp::HypervisorSwitch::GroupFlow&) {
        occupied(addr, {topo::Layer::kHost, host});
      },
      [&](std::uint32_t addr, topo::Layer layer, std::uint32_t id,
          const net::PortBitmap&) { occupied(addr, {layer, id}); });
  for (const auto& [key, queued] : pending_) occupied(key.group, key.slot);

  event_ctx_ = {};  // sync updates come from no event
  std::size_t applied = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    // Merging also sorts and dedups the occupied slots, as RuleSlots keeps
    // them.
    slots[i].merge(controller_->has_group(groups[i])
                       ? controller_->rule_slots(groups[i])
                       : RuleSlots{});
    diff_group(groups[i], slots[i]);
    if (pending_.size() >= options_.flush_threshold) applied += flush();
  }
  return applied + flush();
}

bool ControlPlane::diff_group(GroupId group, const RuleSlots& changed) {
  const auto addr = net::Ipv4Address::multicast_group(group).value;
  auto desired = controller_->has_group(group)
                     ? p4rt::compile(*controller_, group, &changed)
                     : std::vector<p4rt::Update>{};
  stats_.rules_compiled += desired.size();
  // The compare below reads back one cold hypervisor per flow. Prefetch in
  // two passes so those misses overlap: first each target's leading lines,
  // then (with its table header warm) its probe line.
  for (const auto& u : desired) {
    if (is_flow(u)) fabric_->hypervisor(u.host).prefetch_leading_lines();
  }
  for (const auto& u : desired) {
    if (is_flow(u)) fabric_->hypervisor(u.host).prefetch(u.group);
  }
  bool edited = false;
  std::vector<RuleSlot> compiled;
  compiled.reserve(desired.size());
  for (auto& u : desired) {
    const PendingKey key{addr, is_flow(u) ? RuleSlot{topo::Layer::kHost, u.host}
                                          : RuleSlot{u.layer, u.switch_id}};
    compiled.push_back(key.slot);
    edited = settle(key, &u) || edited;
  }

  std::sort(compiled.begin(), compiled.end());
  auto vacate = [&](RuleSlot slot) {
    if (std::binary_search(compiled.begin(), compiled.end(), slot)) return;
    edited = settle(PendingKey{addr, slot}, nullptr) || edited;
  };
  for (const auto host : changed.hosts) vacate({topo::Layer::kHost, host});
  for (const auto& slot : changed.srules) vacate(slot);
  return edited;
}

bool ControlPlane::settle(const PendingKey& key, p4rt::Update* rule) {
  const auto it = pending_.find(key);
  if (it != pending_.end() && (rule != nullptr ? it->second.update == *rule
                                               : !is_add(it->second.update))) {
    return false;  // already queued
  }
  // Whether the slot holds its desired state with no update pending.
  const bool in_fabric =
      rule != nullptr ? installed(key, rule) : !installed(key, nullptr);
  auto desired = [&] {
    return Pending{rule != nullptr ? std::move(*rule)
                                   : removal(key.group, key.slot.first,
                                             key.slot.second),
                   event_ctx_};
  };
  if (it == pending_.end()) {
    if (in_fabric) return false;
    pending_.emplace(key, desired());
    return true;
  }
  ++stats_.updates_coalesced;
  if (in_fabric) {
    pending_.erase(it);  // it would only rewrite what the fabric holds
  } else {
    it->second = desired();
  }
  return true;
}

bool ControlPlane::installed(const PendingKey& key,
                             const p4rt::Update* rule) const {
  const net::Ipv4Address group{key.group};
  const auto [layer, target] = key.slot;
  if (layer == topo::Layer::kHost) {
    // The header first: an event's change set is mostly senders whose header
    // changed, and a header that differs in length is rejected without
    // loading its bytes or the VM list.
    const auto* flow = fabric_->hypervisor(target).flow(group);
    return flow != nullptr &&
           (rule == nullptr || (flow->elmo_header == rule->elmo_header &&
                                flow->vni == rule->vni &&
                                flow->local_vms == rule->local_vms));
  }
  const auto& sw = layer == topo::Layer::kLeaf ? fabric_->leaf(target)
                                               : fabric_->spine(target);
  const auto* ports = sw.srule(group);
  return ports != nullptr && (rule == nullptr || *ports == rule->ports);
}

std::size_t ControlPlane::flush() {
  if (pending_.empty() && pending_event_times_.empty()) return 0;

  std::size_t applied = 0;
  if (!pending_.empty()) {
    const bool traced = tracer_ != nullptr;
    std::vector<p4rt::Update> batch;
    std::vector<obs::TraceContext> ctxs;  // aligned with batch when traced
    batch.reserve(pending_.size());
    if (traced) ctxs.reserve(pending_.size());
    for (auto& [key, p] : pending_) {
      if (traced) ctxs.push_back(p.ctx);
      batch.push_back(std::move(p.update));
    }
    pending_.clear();

    obs::TraceContext flush_ctx{};
    if (traced) {
      flush_ctx = tracer_->begin_span(
          "flush", obs::TraceLane::kWire, {},
          {{"updates", static_cast<double>(batch.size())}});
      // One causal edge per distinct contributing churn event.
      std::vector<std::uint64_t> seen;
      for (const auto& ctx : ctxs) {
        if (ctx.trace_id == 0) continue;
        if (std::find(seen.begin(), seen.end(), ctx.trace_id) != seen.end()) {
          continue;
        }
        seen.push_back(ctx.trace_id);
        tracer_->flow(ctx, obs::TraceLane::kControl, flush_ctx,
                      obs::TraceLane::kWire);
      }
    }

    obs::TraceContext span{};
    if (traced) {
      span = tracer_->begin_span("p4rt_encode", obs::TraceLane::kWire,
                                 flush_ctx);
    }
    const auto wire = p4rt::encode(batch);
    if (traced) {
      tracer_->end_span(span);
      span = tracer_->begin_span("p4rt_decode", obs::TraceLane::kWire,
                                 flush_ctx);
    }
    auto decoded = p4rt::decode(wire);
    if (traced) tracer_->end_span(span);

    // Traced, each update gets an install span. decode preserves batch
    // order, so decoded[i] pairs with ctxs[i]; flow installs also poke the
    // fabric's time-to-effect watches.
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      auto& u = decoded[i];
      ++applied_counter(stats_, u);
      if (!traced) {
        fabric_->apply(std::move(u));
        continue;
      }
      const auto ictx = tracer_->begin_span(
          install_span_name(u.kind), obs::TraceLane::kInstall, flush_ctx,
          {{"group", static_cast<double>(u.group.value)},
           {"target", install_target(u)}});
      const auto group = u.group;
      const auto host = u.host;
      const bool flow = is_flow(u);
      const bool removed = u.kind == p4rt::UpdateKind::kHypervisorFlowDel;
      fabric_->apply(std::move(u));
      tracer_->end_span(ictx);
      if (i < ctxs.size() && ctxs[i].trace_id != 0) {
        tracer_->flow(ctxs[i], obs::TraceLane::kControl, ictx,
                      obs::TraceLane::kInstall);
      }
      if (flow) fabric_->trace_rule_installed(group, host, ictx, removed);
    }

    applied = decoded.size();
    stats_.wire_bytes += wire.size();
    stats_.updates_applied += applied;
    ++stats_.batches_encoded;
    if (traced) tracer_->end_span(flush_ctx);
  }

  ++stats_.flushes;

  const auto now = std::chrono::steady_clock::now();
  for (const auto stamp : pending_event_times_) {
    stats_.install_lag_seconds.add(
        std::chrono::duration<double>(now - stamp).count());
  }
  pending_event_times_.clear();
  return applied;
}

void accumulate_plane_metrics(const ControlPlaneStats& stats,
                              obs::MetricsRegistry& reg) {
  struct Series {
    const char* name;  // elmo_stream_<name>_total
    std::uint64_t value;
    const char* help;
  };
  const Series series[] = {
      {"events", stats.events, "Events ingested by the control plane"},
      {"joins", stats.joins, "Joins ingested"},
      {"leaves", stats.leaves, "Leaves ingested"},
      {"host_fails", stats.host_fails, "Host failures ingested"},
      {"switch_events", stats.switch_events,
       "Spine or core failures and restores ingested"},
      {"clean_events", stats.clean_events,
       "Events whose diffs edited no pending update"},
      {"rules_compiled", stats.rules_compiled,
       "Rules compiled by delta diffs to compare with installed state"},
      {"flushes", stats.flushes, "Flushes of the pending updates"},
      {"batches_encoded", stats.batches_encoded,
       "Update batches pushed over the wire channel"},
      {"wire_bytes", stats.wire_bytes,
       "p4rt wire bytes crossing the control channel"},
      {"updates", stats.updates_applied,
       "Delta rule updates applied to the fabric"},
      {"updates_coalesced", stats.updates_coalesced,
       "Pending updates overwritten or dropped before flushing"},
      {"flow_adds", stats.flow_adds, "Hypervisor flow adds applied"},
      {"flow_dels", stats.flow_dels, "Hypervisor flow deletes applied"},
      {"leaf_srule_adds", stats.leaf_srule_adds, "Leaf s-rule adds applied"},
      {"leaf_srule_dels", stats.leaf_srule_dels,
       "Leaf s-rule deletes applied"},
      {"spine_srule_adds", stats.spine_srule_adds,
       "Spine s-rule adds applied"},
      {"spine_srule_dels", stats.spine_srule_dels,
       "Spine s-rule deletes applied"},
      {"updates_hypervisor", stats.flow_adds + stats.flow_dels,
       "Hypervisor flow updates applied (adds + dels)"},
      {"updates_leaf", stats.leaf_srule_adds + stats.leaf_srule_dels,
       "Leaf s-rule updates applied (adds + dels)"},
      {"updates_spine", stats.spine_srule_adds + stats.spine_srule_dels,
       "Spine s-rule updates applied (adds + dels)"},
  };
  for (const auto& [name, value, help] : series) {
    const auto id =
        reg.counter(std::string{"elmo_stream_"} + name + "_total", help);
    if (value > 0) reg.add(id, value);
  }
  const auto lag =
      reg.histogram("elmo_stream_install_lag_seconds", obs::latency_bounds(),
                    "Ingest-to-install latency of one event");
  for (const auto seconds : stats.install_lag_seconds.values()) {
    reg.observe(lag, seconds);
  }
}

std::uint64_t fabric_state_digest(const sim::Fabric& fabric) {
  std::uint64_t digest = 0;
  fold_rules(
      fabric,
      [&](std::uint32_t addr, topo::HostId host,
          const dp::HypervisorSwitch::GroupFlow& flow) {
        digest += flow_term(addr, host, flow.vni, flow.local_vms,
                            flow.elmo_header);
      },
      [&](std::uint32_t addr, topo::Layer layer, std::uint32_t id,
          const net::PortBitmap& ports) {
        digest += srule_term(addr, layer, id, ports);
      });
  return digest;
}

std::uint64_t rules_digest(std::span<const p4rt::Update> updates) {
  std::uint64_t digest = 0;
  for (const auto& u : updates) {
    if (u.kind == p4rt::UpdateKind::kHypervisorFlowAdd) {
      digest += flow_term(u.group.value, u.host, u.vni, u.local_vms,
                          u.elmo_header);
    } else if (u.kind == p4rt::UpdateKind::kSRuleAdd) {
      digest += srule_term(u.group.value, u.layer, u.switch_id, u.ports);
    }
  }
  return digest;
}

std::uint64_t compiled_state_digest(const Controller& controller) {
  std::uint64_t digest = 0;
  for (const auto group : controller.group_ids()) {
    digest += rules_digest(p4rt::compile_install(controller, group));
  }
  return digest;
}

}  // namespace elmo::stream
