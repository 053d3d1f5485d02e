// Packet-level fabric simulator: instantiates one HypervisorSwitch per host
// and one NetworkSwitch per leaf/spine/core, wires ports per the Clos
// topology, and walks packets through an explicit FIFO event queue of
// (node, PacketView) work items with per-link byte accounting.
//
// This is the "testbed" of the reproduction: applications (§5.2) and the
// end-to-end examples run on it, and it cross-validates the analytic
// TrafficEvaluator used by the large-scale benches.
//
// Rules enter through apply(), the switch side of the p4rt channel, which
// stream::ControlPlane drives: its events and its sync (install, removal,
// repair) are the one install path. install_group, which applies a group's
// compiled rules without the wire, is left only for perfbench's set-up.
//
// The walk is a zero-copy pipeline: each work item's node is a hypervisor or
// a network switch, both with the process(view, arena) call shape of
// dataplane/forwarding.h; work items carry refcounted PacketViews, and
// emissions land in one per-fabric EmissionArena that is reused across hops
// and sends — the walk performs no steady-state allocation and no per-link
// deep copies (see DESIGN.md, "Forwarding pipeline").
//
// send() is the only multicast walk: one FIFO drain per send. A fabric is
// single-threaded; work that wants cores runs independent fabrics, one per
// thread (DESIGN.md §12).
//
// Per-node and per-link state is flat and index-addressed: the fabric holds
// its hypervisors and its switches by value in two vectors in node order,
// and link counters in one contiguous array indexed by (node, out-port), so
// the hot walk does array arithmetic, not pointer chasing or tree lookups.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "dataplane/forwarding.h"
#include "dataplane/hypervisor_switch.h"
#include "dataplane/network_switch.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "elmo/controller.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/packet_view.h"
#include "p4rt/runtime.h"
#include "topology/clos.h"

namespace elmo::obs {
class TimeSeriesStore;
}  // namespace elmo::obs

namespace elmo::sim {

// One endpoint of the walk: either a network switch or a host hypervisor.
struct NodeRef {
  topo::Layer layer = topo::Layer::kHost;
  std::uint32_t id = 0;

  auto operator<=>(const NodeRef&) const = default;
};

struct LinkStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  auto operator<=>(const LinkStats&) const = default;
};

// Hosts a send reached, with the number of copies each saw: a flat vector
// of (host, count) sorted by host, read like the std::map it replaced
// (ascending iteration, find/contains/at, operator[]). A host's number of
// copies is at(host).
class HostCopies {
 public:
  using key_type = topo::HostId;
  using mapped_type = std::size_t;
  using value_type = std::pair<topo::HostId, std::size_t>;
  using iterator = std::vector<value_type>::const_iterator;
  using const_iterator = iterator;

  // Replaces the contents with the multiplicities of `hosts` (reordered).
  void assign_counts(std::span<topo::HostId> hosts);

  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  const_iterator find(topo::HostId host) const noexcept {
    const auto it = lower_bound(host);
    return it != entries_.end() && it->first == host ? it : entries_.end();
  }
  bool contains(topo::HostId host) const noexcept {
    return find(host) != end();
  }
  // Throws std::out_of_range for a host the send did not reach.
  std::size_t at(topo::HostId host) const;
  // The host's count, inserted as 0 if absent.
  std::size_t& operator[](topo::HostId host);

  bool operator==(const HostCopies&) const = default;

 private:
  std::vector<value_type>::const_iterator lower_bound(
      topo::HostId host) const noexcept {
    return std::lower_bound(
        entries_.begin(), entries_.end(), host,
        [](const value_type& e, topo::HostId h) { return e.first < h; });
  }

  std::vector<value_type> entries_;
};

struct SendResult {
  // Hosts that received the packet, with the number of copies each saw.
  HostCopies host_copies;
  // Per-VM deliveries performed by receiving hypervisors.
  std::size_t vm_deliveries = 0;
  std::uint64_t total_wire_bytes = 0;
  std::uint64_t total_link_transmissions = 0;
  std::size_t max_hops = 0;  // longest switch path the packet took
};

// Aggregate event-queue activity across every send since construction (or
// reset_walk_stats()). Complements per-element SwitchStats/HypervisorStats
// with walk-level totals the queue itself observes.
struct FabricWalkStats {
  std::uint64_t sends = 0;              // multicast walks started
  std::uint64_t unicast_sends = 0;
  std::uint64_t work_items = 0;         // queue entries processed
  std::uint64_t enqueues = 0;
  std::uint64_t max_queue_depth = 0;    // high-water mark of pending items
  std::uint64_t vm_deliveries = 0;
  std::uint64_t host_copies = 0;
  std::uint64_t link_transmissions = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t lost_copies = 0;        // dropped by the loss model
};

class Fabric {
 public:
  explicit Fabric(const topo::ClosTopology& topology);
  // The switches are held by value: a copy would duplicate every one.
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Each accessor throws std::out_of_range for an id outside its layer.
  dp::HypervisorSwitch& hypervisor(topo::HostId host) {
    return hosts_.at(host);
  }
  dp::NetworkSwitch& leaf(topo::LeafId leaf) {
    return switches_[switch_slot(topo::Layer::kLeaf, leaf)];
  }
  dp::NetworkSwitch& spine(topo::SpineId spine) {
    return switches_[switch_slot(topo::Layer::kSpine, spine)];
  }
  dp::NetworkSwitch& core(topo::CoreId core) {
    return switches_[switch_slot(topo::Layer::kCore, core)];
  }
  const dp::HypervisorSwitch& hypervisor(topo::HostId host) const {
    return hosts_.at(host);
  }
  const dp::NetworkSwitch& leaf(topo::LeafId leaf) const {
    return switches_[switch_slot(topo::Layer::kLeaf, leaf)];
  }
  const dp::NetworkSwitch& spine(topo::SpineId spine) const {
    return switches_[switch_slot(topo::Layer::kSpine, spine)];
  }
  const dp::NetworkSwitch& core(topo::CoreId core) const {
    return switches_[switch_slot(topo::Layer::kCore, core)];
  }

  const topo::ClosTopology& topology() const noexcept { return *topo_; }

  // Applies p4rt::compile_install(group) directly, without the wire. Left
  // only as the end-to-end benchmark's set-up (perfbench); everything else
  // installs, removes and repairs groups with stream::ControlPlane::sync.
  // Re-invoking it overwrites every rule the group compiles now but deletes
  // none it stopped compiling.
  void install_group(const elmo::Controller& controller, elmo::GroupId group);

  // Applies one rule update (the switch side of the p4rt channel). Taken by
  // value so the flow's VM list, header and s-rule bitmap move into the
  // data plane. Throws std::invalid_argument for an s-rule outside the leaf
  // and spine layers.
  void apply(p4rt::Update update);

  // A VM on `src` sends `payload` to `group`; the packet is encapsulated by
  // the source hypervisor and walked through the fabric.
  SendResult send(topo::HostId src, net::Ipv4Address group,
                  std::span<const std::uint8_t> payload);

  SendResult send(topo::HostId src, net::Ipv4Address group,
                  std::size_t payload_bytes);

  // Unicast VXLAN path between two hosts (baseline traffic and app-layer
  // replication). Standard IP routing is not the system under test, so this
  // walks the ECMP path directly and accounts bytes per link.
  SendResult send_unicast(topo::HostId src, topo::HostId dst,
                          std::size_t payload_bytes);

  // Per-link counters, materialized from the flat per-(node, out-port)
  // array; links that never carried a packet are omitted.
  std::map<std::pair<NodeRef, NodeRef>, LinkStats> links() const;
  void reset_link_stats() {
    for (auto& l : link_stats_) l = LinkStats{};
  }

  // Random per-link loss (for reliability-layer experiments, paper §7):
  // each transmitted copy is independently dropped with probability `rate`
  // after being accounted on the wire. Draws come from a per-send stream
  // Rng::stream(seed, ordinal) — ordinal counts sends since set_loss — so a
  // send's draws do not depend on how many copies earlier sends made.
  void set_loss(double rate, std::uint64_t seed = 1) {
    loss_rate_ = rate;
    loss_seed_ = seed;
    send_ordinal_ = 0;
  }

  // Directed per-link loss override for gray-failure injection: copies
  // transmitted from `from` towards `to` are dropped with probability
  // max(rate, global loss rate). Draws share the global loss stream: an
  // override changes only the acceptance threshold, not the draw order.
  // Does NOT reset the send ordinal — injection mid-run keeps the stream
  // aligned. Throws std::invalid_argument unless both nodes exist and are
  // adjacent.
  void set_link_loss(const NodeRef& from, const NodeRef& to, double rate);
  void clear_link_loss();

  // Appends the fabric's aggregate health series — per-layer dataplane
  // counters, walk totals, and directed per-layer-pair link transmission
  // sums (elmo_link_<from>_<to>_tx_total) — into `store` under its current
  // sampling window. Does not advance the window; the driver decides when a
  // window closes. Allocation-free after the first call (DESIGN.md §14).
  void sample_into(obs::TimeSeriesStore& store) const;

  // Optional hop tracer (nullptr detaches). Each send() then records a root
  // "send" span {group, src_host, send_index} on TraceLane::kData and, per
  // work item, a child span named by the node's layer ("host", "leaf",
  // "spine", "core") {node, hop, fanout, queue_depth} that closes after the
  // node processed the packet. A walk that throws closes both the send span
  // and the hop span it was in before the exception propagates.
  // Kept apart from set_tracer() so a tracer can watch time-to-effect
  // without also holding every hop; pass the same tracer to both for one
  // timeline. Not owned; must outlive the sends it observes. A detached
  // fabric pays one pointer test per work item.
  void set_recorder(obs::Tracer* recorder) noexcept { recorder_ = recorder; }
  obs::Tracer* recorder() const noexcept { return recorder_; }

  // Optional decision-provenance log (nullptr detaches). Each send() then
  // grows one decision tree in it: the walk opens a hop per work item and
  // hands the element that hop's decision slot (DESIGN.md §10). Not owned;
  // must outlive the sends it observes.
  void set_provenance(obs::ProvenanceLog* log) noexcept { prov_ = log; }
  obs::ProvenanceLog* provenance() const noexcept { return prov_; }

  // --- Causal tracing & time-to-effect (DESIGN.md §15) ---------------------
  // Optional tracer (nullptr detaches; not owned, must outlive the fabric's
  // use of it). The tracer itself is passive here; it powers the TTE watches
  // below. With no watches armed the walk pays one empty() test per
  // host-copy delivery. Changing the tracer drops every open watch: their
  // timestamps are on the old tracer's clock.
  void set_tracer(obs::Tracer* tracer) noexcept {
    if (tracer != tracer_) tte_watches_.clear();
    tracer_ = tracer;
  }
  obs::Tracer* tracer() const noexcept { return tracer_; }

  // Registers a time-to-effect watch for (group address, host) on behalf of
  // the churn event `event_root` (ingest time = now). A join watch arms when
  // its flow install lands (trace_rule_installed) and closes at the first
  // host-copy delivery after that — join-to-first-delivery. A leave watch
  // tracks stale deliveries while open and closes when the flow removal
  // lands — leave-to-last-stale-delivery (0 if no stale copy was seen).
  // A newer watch for the same key replaces the older one (coalescing), and
  // an install of the opposite polarity cancels the watch. No-op without a
  // tracer.
  void trace_watch(net::Ipv4Address group, topo::HostId host,
                   const obs::TraceContext& event_root, bool leave);
  // Called by the install path when a hypervisor flow add/remove for
  // (group, host) has been applied; `install_span` is the install's span
  // (flow-linked from the TTE instant when the watch closes).
  void trace_rule_installed(net::Ipv4Address group, topo::HostId host,
                            const obs::TraceContext& install_span,
                            bool removed);
  std::size_t open_trace_watches() const noexcept {
    return tte_watches_.size();
  }
  const std::vector<obs::TteRecord>& tte_records() const noexcept {
    return tte_records_;
  }
  void clear_tte_records() { tte_records_.clear(); }

  const FabricWalkStats& walk_stats() const noexcept { return walk_stats_; }
  void reset_walk_stats() noexcept { walk_stats_ = FabricWalkStats{}; }

  // Sum the stats of every switch of `layer` (kLeaf, kSpine or kCore; kHost
  // sums nothing) and of every hypervisor.
  dp::SwitchStats aggregate_switch_stats(topo::Layer layer) const;
  dp::HypervisorStats aggregate_hypervisor_stats() const;

 private:
  // FIFO event-queue entry: a packet replica arriving at a node. `hops`
  // counts switch traversals (host deliveries keep the emitting switch's
  // count, so max_hops reports the longest switch path).
  struct WorkItem {
    NodeRef at;
    net::PacketView packet;
    std::size_t hops = 0;
    std::size_t prov = obs::kNoProvParent;  // parent hop in the decision tree
  };

  // Contiguous node numbering: hosts, then leaves, spines, cores. A layer's
  // nodes are [layer_base_[layer], layer_base_[layer + 1]).
  std::size_t node_index(const NodeRef& node) const noexcept {
    return layer_base_[static_cast<std::size_t>(node.layer)] + node.id;
  }
  bool has_node(const NodeRef& node) const noexcept {
    const auto layer = static_cast<std::size_t>(node.layer);
    return node.id < layer_base_[layer + 1] - layer_base_[layer];
  }
  // The index into switches_ of switch `id` of `layer`. Throws
  // std::out_of_range unless that switch exists, so one layer's accessor
  // never hands out the next layer's switch.
  std::size_t switch_slot(topo::Layer layer, std::uint32_t id) const;

  // Accounts one copy leaving node `from_index` on out-port `port`.
  void account_port(std::size_t from_index, std::size_t port,
                    std::size_t bytes, SendResult& result);
  // Loss draw for one copy leaving `from_index` on `port`. The effective
  // rate is max(global, per-link override); with both zero no random draw
  // happens (the loss stream stays untouched, preserving seed stability).
  bool lost_on(util::Rng& rng, std::size_t from_index, std::size_t port) {
    double rate = loss_rate_;
    if (has_link_loss_) {
      rate = std::max(rate, link_loss_[link_base_[from_index] + port]);
    }
    return rate > 0.0 && rng.bernoulli(rate);
  }
  // The node at the far end of `node`'s `out_port` (a host's port 0 is its
  // leaf uplink).
  NodeRef neighbor_of(const NodeRef& node, std::size_t out_port) const;
  // Out-port of `from` that reaches the adjacent node `to`.
  std::size_t port_towards(const NodeRef& from, const NodeRef& to) const;

  const topo::ClosTopology* topo_;
  // Node i < hosts is hosts_[i]; any other is switches_[i - hosts], which
  // holds the leaves, then the spines, then the cores.
  std::vector<dp::HypervisorSwitch> hosts_;
  std::vector<dp::NetworkSwitch> switches_;
  std::size_t layer_base_[5] = {0, 0, 0, 0, 0};  // see node_index()

  // Per-(node, out-port) link counters: slot = link_base_[node_index] +
  // out_port.
  std::vector<std::size_t> link_base_;
  std::vector<LinkStats> link_stats_;

  double loss_rate_ = 0.0;
  std::uint64_t loss_seed_ = 1;
  std::uint64_t send_ordinal_ = 0;  // per-send loss-stream counter
  bool has_link_loss_ = false;
  std::vector<double> link_loss_;  // per (node, out-port); lazily sized

  FabricWalkStats walk_stats_;
  obs::Tracer* recorder_ = nullptr;
  obs::ProvenanceLog* prov_ = nullptr;

  // Time-to-effect watches keyed by (group address, host). Non-empty only
  // while a tracer is attached and churn is in flight.
  struct TteWatch {
    bool leave = false;
    bool installed = false;      // join: its flow install has landed
    obs::TraceContext event_root;
    obs::TraceContext install_span;
    double t0_us = 0;            // churn-event ingest time
    double last_stale_us = -1;   // leave: newest delivery while open
  };
  void tte_on_delivery(std::uint32_t group, std::uint32_t host);
  obs::Tracer* tracer_ = nullptr;
  std::map<std::pair<std::uint32_t, std::uint32_t>, TteWatch> tte_watches_;
  std::vector<obs::TteRecord> tte_records_;

  // Walk state, reused across sends (capacity persists, contents do not):
  // the FIFO (drained through a head index), and one host id per host copy,
  // counted into SendResult::host_copies when the walk ends.
  std::vector<WorkItem> queue_;
  std::vector<topo::HostId> delivered_;
  dp::EmissionArena arena_;
};

// One-shot export: registers the telemetry names (idempotent) and adds the
// fabric's *current* per-element and walk totals into `reg`. Call once per
// fabric at the end of a run — calling again adds the totals again. Suits
// short-lived fabrics (bench iterations, fuzz scenarios) where a live
// pull-model collector would dangle after the fabric dies.
void accumulate_fabric_metrics(const Fabric& fabric, obs::MetricsRegistry& reg);

}  // namespace elmo::sim
