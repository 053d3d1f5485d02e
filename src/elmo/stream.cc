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

bool is_flow(const p4rt::Update& u) {
  return u.kind == p4rt::UpdateKind::kHypervisorFlowAdd ||
         u.kind == p4rt::UpdateKind::kHypervisorFlowDel;
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
    const auto queued_before = stats_.updates_coalesced + pending_.size();
    {
      const ControlSpan diff{tracer_, "delta_diff", root.ctx()};
      event_ctx_ = root.ctx();
      for (const auto& [group, change] : impact.changes) {
        diff_group(group, change);
      }
    }
    if (stats_.updates_coalesced + pending_.size() == queued_before) {
      ++stats_.clean_events;
    }
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

void ControlPlane::diff_group(GroupId group, const RuleSlots& changed) {
  const auto addr = controller_->group(group).address.value;
  auto desired =
      p4rt::compile(*controller_, group, /*install=*/true, &changed);
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
  std::vector<RuleSlot> compiled;
  compiled.reserve(desired.size());
  for (auto& u : desired) {
    const PendingKey key{addr, is_flow(u) ? RuleSlot{topo::Layer::kHost, u.host}
                                          : RuleSlot{u.layer, u.switch_id}};
    compiled.push_back(key.slot);
    if (!holds(key, &u)) queue(key, std::move(u));
  }

  std::sort(compiled.begin(), compiled.end());
  auto vacate = [&](RuleSlot slot) {
    const PendingKey key{addr, slot};
    if (std::binary_search(compiled.begin(), compiled.end(), slot) ||
        !holds(key, nullptr)) {
      return;
    }
    queue(key, removal(addr, slot.first, slot.second));
  };
  for (const auto host : changed.hosts) vacate({topo::Layer::kHost, host});
  for (const auto& slot : changed.srules) vacate(slot);
}

bool ControlPlane::holds(const PendingKey& key,
                         const p4rt::Update* rule) const {
  if (const auto it = pending_.find(key); it != pending_.end()) {
    const auto& queued = it->second.update;
    if (rule != nullptr) return queued == *rule;
    return queued.kind == p4rt::UpdateKind::kHypervisorFlowAdd ||
           queued.kind == p4rt::UpdateKind::kSRuleAdd;
  }
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

void ControlPlane::queue(PendingKey key, p4rt::Update update) {
  const auto [it, inserted] = pending_.insert_or_assign(
      std::move(key), Pending{std::move(update), event_ctx_});
  (void)it;
  if (!inserted) ++stats_.updates_coalesced;
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
       "Events whose diffs queued no update"},
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
       "Pending updates overwritten by a newer update before flushing"},
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
  const auto& t = fabric.topology();
  std::uint64_t digest = 0;
  for (topo::HostId h = 0; h < t.num_hosts(); ++h) {
    for (const auto& [addr, flow] : fabric.hypervisor(h).flows()) {
      digest += flow_term(addr, h, flow.vni, flow.local_vms, flow.elmo_header);
    }
  }
  auto fold_switch = [&digest](const dp::NetworkSwitch& sw, topo::Layer layer,
                               std::uint32_t id) {
    for (const auto& [addr, ports] : sw.srules()) {
      digest += srule_term(addr, layer, id, ports);
    }
  };
  for (topo::LeafId l = 0; l < t.num_leaves(); ++l) {
    fold_switch(fabric.leaf(l), topo::Layer::kLeaf, l);
  }
  for (topo::SpineId s = 0; s < t.num_spines(); ++s) {
    fold_switch(fabric.spine(s), topo::Layer::kSpine, s);
  }
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
