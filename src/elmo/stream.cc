#include "elmo/stream.h"

#include <algorithm>
#include <initializer_list>
#include <span>
#include <stdexcept>

#include "obs/metrics.h"

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

struct StreamMetricIds {
  obs::MetricsRegistry::Id events;
  obs::MetricsRegistry::Id updates;
  obs::MetricsRegistry::Id updates_hypervisor;
  obs::MetricsRegistry::Id updates_leaf;
  obs::MetricsRegistry::Id updates_spine;
  obs::MetricsRegistry::Id coalesced;
  obs::MetricsRegistry::Id rules_compiled;
  obs::MetricsRegistry::Id flushes;
  obs::MetricsRegistry::Id wire_bytes;
  obs::MetricsRegistry::Id install_lag;
  StreamMetricIds() {
    auto& reg = obs::MetricsRegistry::global();
    events = reg.counter("elmo_stream_events_total",
                         "Membership events ingested by the control plane");
    updates = reg.counter("elmo_stream_updates_total",
                          "Delta rule updates applied to the fabric");
    updates_hypervisor =
        reg.counter("elmo_stream_updates_hypervisor_total",
                    "Hypervisor flow updates applied (adds + dels)");
    updates_leaf = reg.counter("elmo_stream_updates_leaf_total",
                               "Leaf s-rule updates applied (adds + dels)");
    updates_spine = reg.counter("elmo_stream_updates_spine_total",
                                "Spine s-rule updates applied (adds + dels)");
    coalesced = reg.counter(
        "elmo_stream_updates_coalesced_total",
        "Pending updates overwritten by a newer update before flushing");
    rules_compiled = reg.counter(
        "elmo_stream_rules_compiled_total",
        "Rules compiled by delta diffs to compare with installed state");
    flushes = reg.counter("elmo_stream_flushes_total",
                          "Update batches pushed over the wire channel");
    wire_bytes = reg.counter("elmo_stream_wire_bytes_total",
                             "p4rt wire bytes crossing the control channel");
    install_lag = reg.histogram(
        "elmo_stream_install_lag_seconds", obs::latency_bounds(),
        "Ingest-to-install latency of one membership event");
  }
};

StreamMetricIds& stream_metric_ids() {
  static StreamMetricIds ids;
  return ids;
}

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

void ControlPlane::join(GroupId group, const Member& member) {
  const auto ingested = std::chrono::steady_clock::now();
  const auto root = trace_event_begin(
      "churn:join", {{"group", static_cast<double>(group)},
                     {"host", static_cast<double>(member.host)},
                     {"vm", static_cast<double>(member.vm)}});
  const auto queued_before = stats_.updates_coalesced + pending_.size();
  auto span = trace_child_begin("reencode", root);
  try {
    controller_->join(group, member);
  } catch (...) {
    trace_end(span);
    trace_event_end(root);
    throw;
  }
  trace_end(span);
  accept_event(ingested);
  ++stats_.joins;
  span = trace_child_begin("delta_diff", root);
  diff_group(group, controller_->last_change());
  trace_end(span);
  if (stats_.updates_coalesced + pending_.size() == queued_before) {
    ++stats_.clean_events;
  }
  if (tracer_ != nullptr) {
    // Arm the time-to-effect watch: it arms for real when the flow install
    // lands and closes at the first delivery over the fresh rule.
    fabric_->trace_watch(controller_->group(group).address, member.host, root,
                         /*leave=*/false);
  }
  trace_event_end(root);
  maybe_auto_flush();
}

Member ControlPlane::leave(GroupId group, topo::HostId host, std::uint32_t vm) {
  const auto ingested = std::chrono::steady_clock::now();
  const auto root = trace_event_begin(
      "churn:leave", {{"group", static_cast<double>(group)},
                      {"host", static_cast<double>(host)},
                      {"vm", static_cast<double>(vm)}});
  const auto queued_before = stats_.updates_coalesced + pending_.size();
  auto span = trace_child_begin("reencode", root);
  Member removed;
  try {
    removed = controller_->leave(group, host, vm);
  } catch (...) {
    trace_end(span);
    trace_event_end(root);
    throw;
  }
  trace_end(span);
  accept_event(ingested);
  ++stats_.leaves;
  span = trace_child_begin("delta_diff", root);
  diff_group(group, controller_->last_change());
  trace_end(span);
  if (stats_.updates_coalesced + pending_.size() == queued_before) {
    ++stats_.clean_events;
  }
  watch_leave(group, host, root);
  trace_event_end(root);
  maybe_auto_flush();
  return removed;
}

std::size_t ControlPlane::host_fail(topo::HostId host) {
  accept_event(std::chrono::steady_clock::now());
  ++stats_.host_fails;
  const auto root = trace_event_begin(
      "churn:host_fail", {{"host", static_cast<double>(host)}});

  std::size_t evicted = 0;
  for (const auto group : controller_->group_ids()) {
    // Collect first: Controller::leave invalidates member iteration.
    std::vector<std::uint32_t> vms;
    for (const auto& m : controller_->group(group).members) {
      if (m.host == host) vms.push_back(m.vm);
    }
    if (vms.empty()) continue;
    auto span = trace_child_begin("reencode", root);
    RuleSlots changed;
    for (const auto vm : vms) {
      controller_->leave(group, host, vm);
      changed.merge(controller_->last_change());
      ++evicted;
    }
    trace_end(span);
    span = trace_child_begin("delta_diff", root);
    diff_group(group, changed);
    trace_end(span);
    watch_leave(group, host, root);
  }
  trace_event_end(root);
  maybe_auto_flush();
  return evicted;
}

template <typename Apply>
Controller::FailureImpact ControlPlane::switch_event(const char* name,
                                                    std::uint32_t id,
                                                    Apply&& apply) {
  const auto ingested = std::chrono::steady_clock::now();
  const auto root =
      trace_event_begin(name, {{"switch", static_cast<double>(id)}});
  auto span = trace_child_begin("reroute", root);
  Controller::FailureImpact impact;
  try {
    impact = apply();
  } catch (...) {
    trace_end(span);
    trace_event_end(root);
    throw;
  }
  trace_end(span);
  accept_event(ingested);
  ++stats_.switch_events;
  span = trace_child_begin("delta_diff", root);
  for (const auto& [group, change] : impact.changes) diff_group(group, change);
  trace_end(span);
  trace_event_end(root);
  maybe_auto_flush();
  return impact;
}

Controller::FailureImpact ControlPlane::fail_spine(topo::SpineId spine) {
  return switch_event("churn:fail_spine", spine,
                      [&] { return controller_->fail_spine(spine); });
}

Controller::FailureImpact ControlPlane::fail_core(topo::CoreId core) {
  return switch_event("churn:fail_core", core,
                      [&] { return controller_->fail_core(core); });
}

Controller::FailureImpact ControlPlane::restore_spine(topo::SpineId spine) {
  return switch_event("churn:restore_spine", spine,
                      [&] { return controller_->restore_spine(spine); });
}

Controller::FailureImpact ControlPlane::restore_core(topo::CoreId core) {
  return switch_event("churn:restore_core", core,
                      [&] { return controller_->restore_core(core); });
}

void ControlPlane::accept_event(
    std::chrono::steady_clock::time_point ingested) {
  pending_event_times_.push_back(ingested);
  ++stats_.events;
  ELMO_METRIC(reg.add(stream_metric_ids().events));
}

obs::TraceContext ControlPlane::trace_event_begin(
    const char* name, std::initializer_list<obs::TraceAttr> attrs) {
  if (tracer_ == nullptr) return {};
  const auto root =
      tracer_->begin_span(name, obs::TraceLane::kControl, {}, attrs);
  event_ctx_ = root;
  return root;
}

obs::TraceContext ControlPlane::trace_child_begin(
    const char* name, const obs::TraceContext& root) {
  if (tracer_ == nullptr) return {};
  return tracer_->begin_span(name, obs::TraceLane::kControl, root);
}

void ControlPlane::trace_end(const obs::TraceContext& span) {
  if (tracer_ != nullptr) tracer_->end_span(span);
}

void ControlPlane::trace_event_end(const obs::TraceContext& root) {
  if (tracer_ == nullptr) return;
  tracer_->end_span(root);
  event_ctx_ = {};
}

void ControlPlane::watch_leave(GroupId group, topo::HostId host,
                               const obs::TraceContext& root) {
  if (tracer_ == nullptr) return;
  const auto& g = controller_->group(group);
  if (std::any_of(g.members.begin(), g.members.end(),
                  [host](const Member& m) { return m.host == host; })) {
    return;
  }
  fabric_->trace_watch(g.address, host, root, /*leave=*/true);
}

void ControlPlane::track_group(GroupId group) {
  (void)controller_->group(group);
}

void ControlPlane::diff_group(GroupId group, const RuleSlots& changed) {
  const auto addr = controller_->group(group).address.value;
  auto desired =
      p4rt::compile(*controller_, group, /*install=*/true, &changed);
  stats_.rules_compiled += desired.size();
  ELMO_METRIC(reg.add(stream_metric_ids().rules_compiled, desired.size()));
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
  const auto ctx = tracer_ != nullptr ? event_ctx_ : obs::TraceContext{};
  const auto [it, inserted] = pending_.insert_or_assign(
      std::move(key), Pending{std::move(update), ctx});
  (void)it;
  if (!inserted) {
    ++stats_.updates_coalesced;
    ELMO_METRIC(reg.add(stream_metric_ids().coalesced));
  }
}

void ControlPlane::note_applied(const p4rt::Update& update) {
  switch (update.kind) {
    case p4rt::UpdateKind::kHypervisorFlowAdd:
      ++stats_.flow_adds;
      ELMO_METRIC(reg.add(stream_metric_ids().updates_hypervisor));
      break;
    case p4rt::UpdateKind::kHypervisorFlowDel:
      ++stats_.flow_dels;
      ELMO_METRIC(reg.add(stream_metric_ids().updates_hypervisor));
      break;
    case p4rt::UpdateKind::kSRuleAdd:
      if (update.layer == topo::Layer::kLeaf) {
        ++stats_.leaf_srule_adds;
        ELMO_METRIC(reg.add(stream_metric_ids().updates_leaf));
      } else {
        ++stats_.spine_srule_adds;
        ELMO_METRIC(reg.add(stream_metric_ids().updates_spine));
      }
      break;
    case p4rt::UpdateKind::kSRuleDel:
      if (update.layer == topo::Layer::kLeaf) {
        ++stats_.leaf_srule_dels;
        ELMO_METRIC(reg.add(stream_metric_ids().updates_leaf));
      } else {
        ++stats_.spine_srule_dels;
        ELMO_METRIC(reg.add(stream_metric_ids().updates_spine));
      }
      break;
  }
}

void ControlPlane::maybe_auto_flush() {
  if (pending_.size() >= options_.flush_threshold) flush();
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
      note_applied(u);
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
    ELMO_METRIC({
      reg.add(stream_metric_ids().wire_bytes, wire.size());
      reg.add(stream_metric_ids().updates, applied);
    });
    if (traced) tracer_->end_span(flush_ctx);
  }

  ++stats_.flushes;
  ELMO_METRIC(reg.add(stream_metric_ids().flushes));

  const auto now = std::chrono::steady_clock::now();
  for (const auto stamp : pending_event_times_) {
    const auto lag = std::chrono::duration<double>(now - stamp).count();
    stats_.install_lag_seconds.add(lag);
    ELMO_METRIC(reg.observe(stream_metric_ids().install_lag, lag));
  }
  pending_event_times_.clear();
  return applied;
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
