#include "sim/fabric.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/span.h"
#include "obs/timeseries.h"

namespace elmo::sim {

namespace {

// Hop span names by topo::Layer (obs::Tracer keeps the pointer, so these
// must be literals).
constexpr const char* kHopSpanNames[] = {"host", "leaf", "spine", "core"};

// Global-registry ids, registered once on first use (registration takes the
// registry lock; the per-send hot path must not).
struct FabricMetricIds {
  obs::MetricsRegistry::Id send_seconds;
  obs::MetricsRegistry::Id tte_join_seconds;
  obs::MetricsRegistry::Id tte_leave_seconds;
  FabricMetricIds() {
    auto& reg = obs::MetricsRegistry::global();
    send_seconds = reg.histogram(
        "elmo_fabric_send_seconds", obs::latency_bounds(),
        "Wall-clock time of one multicast fabric walk (event-queue drain)");
    tte_join_seconds = reg.histogram(
        "elmo_tte_join_seconds", obs::latency_bounds(),
        "Time-to-effect of a join: churn-event ingest to the first "
        "host-copy delivered over the freshly installed flow (DESIGN.md "
        "S15)");
    tte_leave_seconds = reg.histogram(
        "elmo_tte_leave_stale_seconds", obs::latency_bounds(),
        "Time-to-effect of a leave: churn-event ingest to the last stale "
        "host-copy delivered before the flow removal landed (0 when no "
        "stale copy was seen)");
  }
};

FabricMetricIds& fabric_metric_ids() {
  static FabricMetricIds ids;
  return ids;
}

constexpr std::size_t kMaxHops = 8;  // > any Clos path; catches loops
// How many work items ahead of the dequeue the walk prefetches a host
// item's probe line (DESIGN.md §4, "Prefetch pipeline"; measured in
// EXPERIMENTS.md).
constexpr std::size_t kHostPrefetchDistance = 6;

}  // namespace

Fabric::Fabric(const topo::ClosTopology& topology) : topo_{&topology} {
  const std::size_t hosts = topology.num_hosts();
  const std::size_t leaves = topology.num_leaves();
  const std::size_t spines = topology.num_spines();
  const std::size_t cores = topology.num_cores();
  const std::size_t nodes = hosts + leaves + spines + cores;
  layer_base_[static_cast<std::size_t>(topo::Layer::kLeaf)] = hosts;
  layer_base_[static_cast<std::size_t>(topo::Layer::kSpine)] = hosts + leaves;
  layer_base_[static_cast<std::size_t>(topo::Layer::kCore)] =
      hosts + leaves + spines;
  layer_base_[4] = nodes;

  hosts_.reserve(hosts);
  for (topo::HostId h = 0; h < hosts; ++h) hosts_.emplace_back(topology, h);
  switches_.reserve(leaves + spines + cores);
  for (topo::LeafId l = 0; l < leaves; ++l) {
    switches_.emplace_back(topology, topo::Layer::kLeaf, l);
  }
  for (topo::SpineId s = 0; s < spines; ++s) {
    switches_.emplace_back(topology, topo::Layer::kSpine, s);
  }
  for (topo::CoreId c = 0; c < cores; ++c) {
    switches_.emplace_back(topology, topo::Layer::kCore, c);
  }

  // One LinkStats slot per (node, out-port).
  auto out_degree = [&](std::size_t node) {
    if (node < hosts) return std::size_t{1};  // host uplink to its leaf
    if (node < hosts + leaves) {
      return topology.leaf_down_ports() + topology.leaf_up_ports();
    }
    if (node < hosts + leaves + spines) {
      return topology.spine_down_ports() + topology.spine_up_ports();
    }
    return topology.core_ports();
  };
  link_base_.resize(nodes + 1);
  link_base_[0] = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    link_base_[n + 1] = link_base_[n] + out_degree(n);
  }
  link_stats_.assign(link_base_.back(), LinkStats{});
}

std::size_t Fabric::switch_slot(topo::Layer layer, std::uint32_t id) const {
  const NodeRef node{layer, id};
  if (!has_node(node)) throw std::out_of_range{"Fabric: no such switch"};
  return node_index(node) - hosts_.size();
}

void Fabric::trace_watch(net::Ipv4Address group, topo::HostId host,
                         const obs::TraceContext& event_root, bool leave) {
  if (tracer_ == nullptr) return;
  TteWatch w;
  w.leave = leave;
  w.event_root = event_root;
  w.t0_us = tracer_->now_us();
  // Newest event for the key wins — matches the control plane's coalescing.
  tte_watches_[{group.value, host}] = w;
}

void Fabric::trace_rule_installed(net::Ipv4Address group, topo::HostId host,
                                  const obs::TraceContext& install_span,
                                  bool removed) {
  if (tracer_ == nullptr || tte_watches_.empty()) return;
  const auto it = tte_watches_.find({group.value, host});
  if (it == tte_watches_.end()) return;
  auto& w = it->second;
  if (!removed) {
    if (w.leave) {
      // A flow install landed while a leave watch was open: the host
      // re-joined before the removal hit the fabric — nothing to measure.
      tte_watches_.erase(it);
      return;
    }
    w.installed = true;
    w.install_span = install_span;
    return;
  }
  if (!w.leave) {
    // A removal landed on a join watch: the join was superseded.
    tte_watches_.erase(it);
    return;
  }
  // The flow removal is live: the leave's time-to-effect is the time the
  // stale tree kept delivering after ingest (0 if it never did).
  obs::TteRecord rec;
  rec.trace_id = w.event_root.trace_id;
  rec.leave = true;
  rec.group = group.value;
  rec.host = host;
  rec.stale_seen = w.last_stale_us >= 0;
  rec.tte_seconds =
      rec.stale_seen ? std::max(0.0, (w.last_stale_us - w.t0_us) / 1e6) : 0.0;
  ELMO_METRIC(
      reg.observe(fabric_metric_ids().tte_leave_seconds, rec.tte_seconds));
  const auto inst = tracer_->instant(
      "tte:leave_closed", obs::TraceLane::kData, w.event_root,
      {{"group", static_cast<double>(group.value)},
       {"host", static_cast<double>(host)},
       {"tte_us", rec.tte_seconds * 1e6},
       {"stale_seen", rec.stale_seen ? 1.0 : 0.0}});
  tracer_->flow(install_span, obs::TraceLane::kInstall, inst,
                obs::TraceLane::kData);
  tte_records_.push_back(rec);
  tte_watches_.erase(it);
}

void Fabric::tte_on_delivery(std::uint32_t group, std::uint32_t host) {
  const auto it = tte_watches_.find({group, host});
  if (it == tte_watches_.end()) return;
  auto& w = it->second;
  const double now = tracer_->now_us();
  if (w.leave) {
    w.last_stale_us = now;  // still delivering over the stale tree
    return;
  }
  if (!w.installed) return;  // pre-install tree; not the new rule's effect
  // First delivery over the freshly installed flow: the join is live.
  obs::TteRecord rec;
  rec.trace_id = w.event_root.trace_id;
  rec.leave = false;
  rec.group = group;
  rec.host = host;
  rec.tte_seconds = std::max(0.0, (now - w.t0_us) / 1e6);
  ELMO_METRIC(
      reg.observe(fabric_metric_ids().tte_join_seconds, rec.tte_seconds));
  const auto inst = tracer_->instant(
      "tte:first_delivery", obs::TraceLane::kData, w.event_root,
      {{"group", static_cast<double>(group)},
       {"host", static_cast<double>(host)},
       {"tte_us", rec.tte_seconds * 1e6}});
  tracer_->flow(w.install_span, obs::TraceLane::kInstall, inst,
                obs::TraceLane::kData);
  tte_records_.push_back(rec);
  tte_watches_.erase(it);
}

void Fabric::install_group(const elmo::Controller& controller,
                           elmo::GroupId group) {
  for (auto& u : p4rt::compile_install(controller, group)) apply(std::move(u));
}

void Fabric::apply(p4rt::Update u) {
  auto srule_switch = [&]() -> dp::NetworkSwitch& {
    if (u.layer == topo::Layer::kLeaf) return leaf(u.switch_id);
    if (u.layer == topo::Layer::kSpine) return spine(u.switch_id);
    throw std::invalid_argument{"Fabric: s-rule at unsupported layer"};
  };
  switch (u.kind) {
    case p4rt::UpdateKind::kHypervisorFlowAdd:
      hypervisor(u.host).install_flow(
          u.group, {.vni = u.vni,
                    .elmo_header = std::move(u.elmo_header),
                    .local_vms = std::move(u.local_vms)});
      break;
    case p4rt::UpdateKind::kHypervisorFlowDel:
      hypervisor(u.host).remove_flow(u.group);
      break;
    case p4rt::UpdateKind::kSRuleAdd:
      srule_switch().install_srule(u.group, std::move(u.ports));
      break;
    case p4rt::UpdateKind::kSRuleDel:
      srule_switch().remove_srule(u.group);
      break;
  }
}

std::size_t Fabric::port_towards(const NodeRef& from, const NodeRef& to) const {
  const auto& t = *topo_;
  switch (from.layer) {
    case topo::Layer::kHost:
      return 0;  // a host's only port is its leaf uplink
    case topo::Layer::kLeaf:
      if (to.layer == topo::Layer::kHost) return t.host_port_on_leaf(to.id);
      return t.leaf_down_ports() + t.plane_of_spine(to.id);
    case topo::Layer::kSpine:
      if (to.layer == topo::Layer::kLeaf) return t.leaf_index_in_pod(to.id);
      return t.spine_down_ports() + t.core_index_in_plane(to.id);
    case topo::Layer::kCore:
      return t.pod_of_spine(to.id);
  }
  throw std::logic_error{"Fabric: unknown node layer"};
}

void Fabric::account_port(std::size_t from_index, std::size_t port,
                          std::size_t bytes, SendResult& result) {
  auto& link = link_stats_[link_base_[from_index] + port];
  ++link.packets;
  link.bytes += bytes;
  ++result.total_link_transmissions;
  result.total_wire_bytes += bytes;
  ++walk_stats_.link_transmissions;
  walk_stats_.wire_bytes += bytes;
}

std::map<std::pair<NodeRef, NodeRef>, LinkStats> Fabric::links() const {
  std::map<std::pair<NodeRef, NodeRef>, LinkStats> out;
  auto emit = [&](const NodeRef& node) {
    const auto idx = node_index(node);
    for (std::size_t port = 0; port < link_base_[idx + 1] - link_base_[idx];
         ++port) {
      const auto& stats = link_stats_[link_base_[idx] + port];
      if (stats.packets == 0) continue;
      out.emplace(std::pair{node, neighbor_of(node, port)}, stats);
    }
  };
  for (topo::HostId h = 0; h < topo_->num_hosts(); ++h) {
    emit(NodeRef{topo::Layer::kHost, h});
  }
  for (topo::LeafId l = 0; l < topo_->num_leaves(); ++l) {
    emit(NodeRef{topo::Layer::kLeaf, l});
  }
  for (topo::SpineId s = 0; s < topo_->num_spines(); ++s) {
    emit(NodeRef{topo::Layer::kSpine, s});
  }
  for (topo::CoreId c = 0; c < topo_->num_cores(); ++c) {
    emit(NodeRef{topo::Layer::kCore, c});
  }
  return out;
}

NodeRef Fabric::neighbor_of(const NodeRef& node, std::size_t out_port) const {
  const auto& t = *topo_;
  switch (node.layer) {
    case topo::Layer::kHost:
      return NodeRef{topo::Layer::kLeaf, t.leaf_of_host(node.id)};
    case topo::Layer::kLeaf: {
      if (out_port < t.leaf_down_ports()) {
        return NodeRef{topo::Layer::kHost, t.host_at(node.id, out_port)};
      }
      const auto plane = out_port - t.leaf_down_ports();
      return NodeRef{topo::Layer::kSpine,
                     t.spine_at(t.pod_of_leaf(node.id), plane)};
    }
    case topo::Layer::kSpine: {
      if (out_port < t.spine_down_ports()) {
        return NodeRef{topo::Layer::kLeaf,
                       t.leaf_at(t.pod_of_spine(node.id), out_port)};
      }
      const auto core_index = out_port - t.spine_down_ports();
      return NodeRef{topo::Layer::kCore,
                     t.core_behind_spine_port(node.id, core_index)};
    }
    case topo::Layer::kCore:
      return NodeRef{topo::Layer::kSpine,
                     t.spine_behind_core_port(
                         node.id, static_cast<topo::PodId>(out_port))};
  }
  throw std::logic_error{"Fabric: unknown node layer"};
}

void HostCopies::assign_counts(std::span<topo::HostId> hosts) {
  // A walk delivers leaf by leaf in port order, so `hosts` is usually
  // sorted already.
  if (!std::is_sorted(hosts.begin(), hosts.end())) {
    std::sort(hosts.begin(), hosts.end());
  }
  entries_.clear();
  for (const auto host : hosts) {
    if (!entries_.empty() && entries_.back().first == host) {
      ++entries_.back().second;
    } else {
      entries_.emplace_back(host, 1);
    }
  }
}

std::size_t HostCopies::at(topo::HostId host) const {
  const auto it = find(host);
  if (it == end()) throw std::out_of_range{"HostCopies::at: host not reached"};
  return it->second;
}

std::size_t& HostCopies::operator[](topo::HostId host) {
  const auto it = lower_bound(host);
  const auto i = static_cast<std::size_t>(it - entries_.begin());
  if (it == entries_.end() || it->first != host) {
    entries_.emplace(it, host, 0);
  }
  return entries_[i].second;
}

SendResult Fabric::send(topo::HostId src, net::Ipv4Address group,
                        std::span<const std::uint8_t> payload) {
  SendResult result;
  auto encapsulated = hypervisor(src).encapsulate(group, payload);
  if (!encapsulated) return result;
  net::PacketView packet{std::move(*encapsulated)};

  std::optional<obs::Span> span;
  ELMO_METRIC(span.emplace(reg, fabric_metric_ids().send_seconds));
  obs::TraceContext send_span;
  if (recorder_ != nullptr) {
    send_span = recorder_->begin_span(
        "send", obs::TraceLane::kData, {},
        {{"group", static_cast<double>(group.value)},
         {"src_host", static_cast<double>(src)},
         {"send_index", static_cast<double>(walk_stats_.sends)}});
  }
  ++walk_stats_.sends;
  auto loss_rng = util::Rng::stream(loss_seed_, send_ordinal_++);

  const auto src_index = node_index(NodeRef{topo::Layer::kHost, src});
  const NodeRef first_leaf{topo::Layer::kLeaf, topo_->leaf_of_host(src)};
  account_port(src_index, 0, packet.size(), result);

  std::size_t prov_root = obs::kNoProvParent;
  if (prov_ != nullptr) {
    prov_root = prov_->begin_send(group.value, src, packet.size());
  }

  queue_.clear();
  std::size_t head = 0;
  delivered_.clear();
  arena_.section_cache().clear();
  const auto pending = [&] {
    return static_cast<std::uint32_t>(queue_.size() - head);
  };
  const auto end_hop_span = [&](const obs::TraceContext& span,
                                std::size_t fanout) {
    recorder_->end_span(span,
                        {{"fanout", static_cast<double>(fanout)},
                         {"queue_depth", static_cast<double>(pending())}});
  };
  // A walk that throws (a malformed Elmo header, the hop cap) closes the
  // hop span it was in and the send span before the exception leaves.
  obs::TraceContext hop_span;
  struct CloseSpansOnUnwind {
    obs::Tracer* recorder;
    const obs::TraceContext& send;
    const obs::TraceContext& hop;
    int exceptions = std::uncaught_exceptions();
    ~CloseSpansOnUnwind() {
      if (recorder == nullptr || std::uncaught_exceptions() == exceptions) {
        return;
      }
      recorder->end_span(hop);
      recorder->end_span(send);
    }
  } close_on_unwind{recorder_, send_span, hop_span};
  if (!lost_on(loss_rng, src_index, 0)) {
    queue_.push_back(WorkItem{first_leaf, std::move(packet), 1, prov_root});
    ++walk_stats_.enqueues;
    walk_stats_.max_queue_depth =
        std::max<std::uint64_t>(walk_stats_.max_queue_depth, pending());
  } else {
    ++walk_stats_.lost_copies;
    if (prov_ != nullptr) {
      prov_->lost_copy(first_leaf.layer, first_leaf.id, prov_root);
    }
  }

  while (head < queue_.size()) {
    // Host items are the fan-out's cold chain: their hypervisor's leading
    // lines were prefetched at enqueue, so its probe line can start now.
    if (head + kHostPrefetchDistance < queue_.size()) {
      const auto& ahead = queue_[head + kHostPrefetchDistance].at;
      if (ahead.layer == topo::Layer::kHost) hosts_[ahead.id].prefetch(group);
    }
    auto item = std::move(queue_[head++]);
    ++walk_stats_.work_items;
    const bool at_host = item.at.layer == topo::Layer::kHost;
    if (!at_host) {
      result.max_hops = std::max(result.max_hops, item.hops);
      if (item.hops > kMaxHops) {
        throw std::runtime_error{"Fabric: packet exceeded max hops (loop?)"};
      }
    }

    if (recorder_ != nullptr) {
      hop_span = recorder_->begin_span(
          kHopSpanNames[static_cast<std::size_t>(item.at.layer)],
          obs::TraceLane::kData, send_span,
          {{"node", static_cast<double>(item.at.id)},
           {"hop", static_cast<double>(item.hops)}});
    }

    // The element fills the hop's decision slot in place: the log's hop
    // vector does not grow until process() has returned.
    std::size_t prov_hop = obs::kNoProvParent;
    obs::HopDecision* decision = nullptr;
    if (prov_ != nullptr) {
      prov_hop = prov_->begin_hop(item.at.layer, item.at.id, item.prov,
                                  item.packet.size());
      decision = &prov_->decision(prov_hop);
    }

    arena_.clear();
    const auto at = node_index(item.at);
    const auto emissions =
        at_host ? hosts_[at].process(item.packet, arena_, decision)
                : switches_[at - hosts_.size()].process(item.packet, arena_,
                                                        decision);

    if (at_host) {
      // Hypervisor emissions are per-VM payload deliveries, not wire hops.
      result.vm_deliveries += emissions.size();
      walk_stats_.vm_deliveries += emissions.size();
      if (recorder_ != nullptr) end_hop_span(hop_span, emissions.size());
      continue;
    }
    for (auto& emission : emissions) {
      const auto next = neighbor_of(item.at, emission.out_port);
      account_port(at, emission.out_port, emission.packet.size(), result);
      if (lost_on(loss_rng, at, emission.out_port)) {
        ++walk_stats_.lost_copies;
        if (prov_ != nullptr) {
          prov_->lost_copy(next.layer, next.id, prov_hop);
        }
        continue;
      }
      if (next.layer == topo::Layer::kHost) {
        delivered_.push_back(next.id);
        ++walk_stats_.host_copies;
        if (!tte_watches_.empty()) tte_on_delivery(group.value, next.id);
        hosts_[next.id].prefetch_leading_lines();
        queue_.push_back(
            WorkItem{next, std::move(emission.packet), item.hops, prov_hop});
      } else {
        queue_.push_back(WorkItem{next, std::move(emission.packet),
                                  item.hops + 1, prov_hop});
      }
      ++walk_stats_.enqueues;
    }
    walk_stats_.max_queue_depth =
        std::max<std::uint64_t>(walk_stats_.max_queue_depth, pending());
    if (recorder_ != nullptr) end_hop_span(hop_span, emissions.size());
  }
  if (recorder_ != nullptr) recorder_->end_span(send_span);
  result.host_copies.assign_counts(delivered_);
  return result;
}

SendResult Fabric::send(topo::HostId src, net::Ipv4Address group,
                        std::size_t payload_bytes) {
  const std::vector<std::uint8_t> payload(payload_bytes, 0xab);
  return send(src, group, payload);
}

SendResult Fabric::send_unicast(topo::HostId src, topo::HostId dst,
                                std::size_t payload_bytes) {
  SendResult result;
  if (src == dst) return result;
  ++walk_stats_.unicast_sends;
  auto loss_rng = util::Rng::stream(loss_seed_, send_ordinal_++);
  const auto& t = *topo_;
  const auto wire_bytes = net::kOuterHeaderBytes + payload_bytes;

  const auto hash =
      dp::flow_hash(dp::host_address(src), dp::host_address(dst));
  const auto src_leaf = t.leaf_of_host(src);
  const auto dst_leaf = t.leaf_of_host(dst);

  std::vector<NodeRef> path;
  path.push_back(NodeRef{topo::Layer::kHost, src});
  path.push_back(NodeRef{topo::Layer::kLeaf, src_leaf});
  if (src_leaf != dst_leaf) {
    const auto plane = t.ecmp_plane(hash);
    if (t.pod_of_leaf(src_leaf) == t.pod_of_leaf(dst_leaf)) {
      path.push_back(NodeRef{topo::Layer::kSpine,
                             t.spine_at(t.pod_of_leaf(src_leaf), plane)});
    } else {
      path.push_back(NodeRef{topo::Layer::kSpine,
                             t.spine_at(t.pod_of_leaf(src_leaf), plane)});
      path.push_back(NodeRef{
          topo::Layer::kCore,
          t.core_at(plane, t.ecmp_core(hash))});
      path.push_back(NodeRef{topo::Layer::kSpine,
                             t.spine_at(t.pod_of_leaf(dst_leaf), plane)});
    }
    path.push_back(NodeRef{topo::Layer::kLeaf, dst_leaf});
  }
  path.push_back(NodeRef{topo::Layer::kHost, dst});

  bool delivered = true;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto from_index = node_index(path[i]);
    const auto port = port_towards(path[i], path[i + 1]);
    account_port(from_index, port, wire_bytes, result);
    if (lost_on(loss_rng, from_index, port)) {
      delivered = false;
      break;
    }
  }
  result.max_hops = path.size() - 2;
  if (delivered) {
    ++result.host_copies[dst];
  } else {
    ++walk_stats_.lost_copies;
  }
  return result;
}

void Fabric::set_link_loss(const NodeRef& from, const NodeRef& to,
                           double rate) {
  // Layers must be one apart before port_towards may be asked for a port.
  const int gap = static_cast<int>(from.layer) - static_cast<int>(to.layer);
  if (!has_node(from) || !has_node(to) || (gap != 1 && gap != -1) ||
      neighbor_of(from, port_towards(from, to)) != to) {
    throw std::invalid_argument{
        "Fabric::set_link_loss: no link " + topo::to_string(from.layer) +
        ":" + std::to_string(from.id) + " -> " + topo::to_string(to.layer) +
        ":" + std::to_string(to.id)};
  }
  if (link_loss_.size() != link_stats_.size()) {
    link_loss_.assign(link_stats_.size(), 0.0);
  }
  link_loss_[link_base_[node_index(from)] + port_towards(from, to)] = rate;
  has_link_loss_ = true;
}

void Fabric::clear_link_loss() {
  has_link_loss_ = false;
  link_loss_.clear();
}

void Fabric::sample_into(obs::TimeSeriesStore& store) const {
  struct LayerSample {
    topo::Layer layer;
    const char* packets_in;
    const char* copies_out;
    const char* drops;
  };
  static constexpr LayerSample kLayerSamples[] = {
      {topo::Layer::kLeaf, "elmo_dp_leaf_packets_in_total",
       "elmo_dp_leaf_copies_out_total", "elmo_dp_leaf_drops_total"},
      {topo::Layer::kSpine, "elmo_dp_spine_packets_in_total",
       "elmo_dp_spine_copies_out_total", "elmo_dp_spine_drops_total"},
      {topo::Layer::kCore, "elmo_dp_core_packets_in_total",
       "elmo_dp_core_copies_out_total", "elmo_dp_core_drops_total"},
  };
  for (const auto& ls : kLayerSamples) {
    const auto s = aggregate_switch_stats(ls.layer);
    store.append(ls.packets_in, static_cast<double>(s.packets_in));
    store.append(ls.copies_out, static_cast<double>(s.copies_out));
    store.append(ls.drops, static_cast<double>(s.drops));
  }

  const auto h = aggregate_hypervisor_stats();
  store.append("elmo_dp_host_sent_total", static_cast<double>(h.sent));
  store.append("elmo_dp_host_received_total", static_cast<double>(h.received));
  store.append("elmo_dp_host_vm_deliveries_total",
               static_cast<double>(h.delivered_to_vms));

  store.append("elmo_fabric_sends_total", static_cast<double>(walk_stats_.sends));
  store.append("elmo_fabric_lost_copies_total",
               static_cast<double>(walk_stats_.lost_copies));
  store.append("elmo_fabric_link_transmissions_total",
               static_cast<double>(walk_stats_.link_transmissions));
  store.append("elmo_fabric_wire_bytes_total",
               static_cast<double>(walk_stats_.wire_bytes));

  // Directed per-layer-pair transmission sums: the "copies put on the wire
  // towards layer X" side of the conservation law the loss-rate detector
  // checks against layer X's own arrival counters. A switch's down-ports
  // come first, then its up-ports, so each pair is one port range per node.
  const auto tx = [&](topo::Layer layer, std::size_t lo, std::size_t hi) {
    std::uint64_t sum = 0;
    const auto l = static_cast<std::size_t>(layer);
    for (auto n = layer_base_[l]; n < layer_base_[l + 1]; ++n) {
      for (auto port = lo; port < hi; ++port) {
        sum += link_stats_[link_base_[n] + port].packets;
      }
    }
    return static_cast<double>(sum);
  };
  const auto& t = *topo_;
  const auto leaf_down = t.leaf_down_ports();
  const auto spine_down = t.spine_down_ports();
  store.append("elmo_link_host_leaf_tx_total", tx(topo::Layer::kHost, 0, 1));
  store.append("elmo_link_leaf_host_tx_total",
               tx(topo::Layer::kLeaf, 0, leaf_down));
  store.append("elmo_link_leaf_spine_tx_total",
               tx(topo::Layer::kLeaf, leaf_down, leaf_down + t.leaf_up_ports()));
  store.append("elmo_link_spine_leaf_tx_total",
               tx(topo::Layer::kSpine, 0, spine_down));
  store.append("elmo_link_spine_core_tx_total",
               tx(topo::Layer::kSpine, spine_down,
                  spine_down + t.spine_up_ports()));
  store.append("elmo_link_core_spine_tx_total",
               tx(topo::Layer::kCore, 0, t.core_ports()));
}

dp::SwitchStats Fabric::aggregate_switch_stats(topo::Layer layer) const {
  dp::SwitchStats total;
  const auto l = static_cast<std::size_t>(layer);
  for (auto n = std::max(layer_base_[l], hosts_.size()); n < layer_base_[l + 1];
       ++n) {
    total += switches_[n - hosts_.size()].stats();
  }
  return total;
}

dp::HypervisorStats Fabric::aggregate_hypervisor_stats() const {
  dp::HypervisorStats total;
  for (const auto& hv : hosts_) total += hv.stats();
  return total;
}

void accumulate_fabric_metrics(const Fabric& fabric,
                               obs::MetricsRegistry& reg) {
  auto add = [&reg](std::string_view name, std::uint64_t value,
                    std::string_view help) {
    const auto id = reg.counter(name, help);
    if (value > 0) reg.add(id, value);
  };

  struct LayerName {
    topo::Layer layer;
    const char* tag;
  };
  for (const auto& [layer, tag] : {LayerName{topo::Layer::kLeaf, "leaf"},
                                   LayerName{topo::Layer::kSpine, "spine"},
                                   LayerName{topo::Layer::kCore, "core"}}) {
    const auto s = fabric.aggregate_switch_stats(layer);
    const std::string p = std::string{"elmo_dp_"} + tag + "_";
    add(p + "packets_in_total", s.packets_in, "Packets entering the pipeline");
    add(p + "bytes_in_total", s.bytes_in, "Bytes entering the pipeline");
    add(p + "copies_out_total", s.copies_out, "Replicated copies emitted");
    add(p + "bytes_out_total", s.bytes_out, "Bytes emitted across all copies");
    add(p + "prule_matches_total", s.prule_matches,
        "Packets forwarded via a parser-matched p-rule bitmap");
    add(p + "upstream_matches_total", s.upstream_matches,
        "Packets forwarded via the layer's upstream rule");
    add(p + "srule_matches_total", s.srule_matches,
        "Packets forwarded via a group-table s-rule");
    add(p + "default_matches_total", s.default_matches,
        "Packets that fell back to the default p-rule");
    add(p + "drops_total", s.drops, "Packets dropped (no rule, or switch down)");
    add(p + "header_pops_total", s.header_pops,
        "Copies whose consumed Elmo sections were invalidated");
    add(p + "header_pop_bytes_total", s.header_pop_bytes,
        "Elmo header bytes removed by pops");
  }

  const auto h = fabric.aggregate_hypervisor_stats();
  add("elmo_dp_host_sent_total", h.sent, "Multicast packets encapsulated");
  add("elmo_dp_host_bytes_sent_total", h.bytes_sent,
      "Encapsulated bytes handed to the wire");
  add("elmo_dp_host_received_total", h.received,
      "Fabric packets received by hypervisors");
  add("elmo_dp_host_bytes_received_total", h.bytes_received,
      "Bytes received by hypervisors");
  add("elmo_dp_host_vm_deliveries_total", h.delivered_to_vms,
      "Per-VM payload deliveries");
  add("elmo_dp_host_delivered_bytes_total", h.delivered_bytes,
      "Payload bytes handed to local VMs");
  add("elmo_dp_host_redundant_copies_total", h.discarded,
      "Copies received by hosts with no local members (redundancy)");

  const auto& w = fabric.walk_stats();
  add("elmo_fabric_sends_total", w.sends, "Multicast walks started");
  add("elmo_fabric_unicast_sends_total", w.unicast_sends,
      "Unicast path walks");
  add("elmo_fabric_work_items_total", w.work_items,
      "Event-queue entries processed");
  add("elmo_fabric_enqueues_total", w.enqueues, "Event-queue entries pushed");
  add("elmo_fabric_vm_deliveries_total", w.vm_deliveries,
      "VM deliveries observed by the walk");
  add("elmo_fabric_host_copies_total", w.host_copies,
      "Copies delivered to host ports");
  add("elmo_fabric_link_transmissions_total", w.link_transmissions,
      "Per-link transmissions accounted");
  add("elmo_fabric_wire_bytes_total", w.wire_bytes,
      "Bytes placed on the wire");
  add("elmo_fabric_lost_copies_total", w.lost_copies,
      "Copies dropped by the loss model");
  const auto depth_id = reg.gauge(
      "elmo_fabric_max_queue_depth",
      "High-water mark of pending event-queue items");
  reg.gauge_max(depth_id, static_cast<double>(w.max_queue_depth));
}

}  // namespace elmo::sim
