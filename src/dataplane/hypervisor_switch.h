// PISCES-style hypervisor (vswitch) model (paper §4.2).
//
// The hypervisor switch intercepts multicast packets from local VMs, looks
// the group up in its flow table, and encapsulates: outer Ethernet + IPv4 +
// UDP + VXLAN plus the group's precomputed Elmo header template, written as
// ONE contiguous header straight into the packet's headroom — the paper's
// key software-switch optimization (one DMA write instead of one per p-rule;
// Figure 7 measures exactly this path). On receive it decapsulates and
// delivers to the local member VMs; packets for groups with no local members
// are discarded.
//
// Its process() has the network switch's call shape (dataplane/forwarding.h):
// it consumes a fabric-ingress packet and emits one zero-copy payload view
// per local member VM (out_port = VM index). Decapsulation is a cursor
// advance past the outer header and any surviving Elmo bytes, never a copy.
//
// Decap reads the flow table's slot summary (DecapSummary: local VM count
// and first VM id) rather than the flow entry, so the common single-VM hit
// touches the object's leading members plus one probe-array line; only
// hosts with two or more local VMs load the GroupFlow and its VM list
// (DESIGN.md §4).
//
// Like the network switch, the hypervisor holds forwarding state only; a
// fabric walk that records provenance hands process() the hop's
// obs::HopDecision slot to fill (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dataplane/common.h"
#include "dataplane/forwarding.h"
#include "dataplane/group_table.h"
#include "elmo/header.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/packet_view.h"
#include "topology/clos.h"
#include "util/prefetch.h"

namespace elmo::obs {
struct HopDecision;
}

namespace elmo::dp {

struct HypervisorStats {
  std::uint64_t sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t delivered_to_vms = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t discarded = 0;  // no local members for the group
};

// HypervisorStats' field table (dataplane/common.h): elmo_dp_host_<name>.
inline constexpr StatField<HypervisorStats> kHypervisorStatFields[] = {
    {"sent", &HypervisorStats::sent, "Multicast packets encapsulated"},
    {"bytes_sent", &HypervisorStats::bytes_sent,
     "Encapsulated bytes handed to the wire"},
    {"received", &HypervisorStats::received,
     "Fabric packets received by hypervisors"},
    {"bytes_received", &HypervisorStats::bytes_received,
     "Bytes received by hypervisors"},
    {"vm_deliveries", &HypervisorStats::delivered_to_vms,
     "Per-VM payload deliveries"},
    {"delivered_bytes", &HypervisorStats::delivered_bytes,
     "Payload bytes handed to local VMs"},
    {"redundant_copies", &HypervisorStats::discarded,
     "Copies received by hosts with no local members (redundancy)"},
};
static_assert(covers_every_field(kHypervisorStatFields));

constexpr const auto& stat_fields(const HypervisorStats&) noexcept {
  return kHypervisorStatFields;
}

class HypervisorSwitch {
 public:
  HypervisorSwitch(const topo::ClosTopology& topology, topo::HostId host)
      : codec_{topology}, host_{host} {}

  topo::HostId host() const noexcept { return host_; }

  struct GroupFlow {
    std::uint32_t vni = 0;                   // tenant id
    std::vector<std::uint8_t> elmo_header;   // template; empty for receive-only
    std::vector<std::uint32_t> local_vms;    // tenant-local VM indices here
  };
  // A flow's slot summary: (local_vms.size() << 32) | local_vms[0], or 0
  // when the flow has no local VM.
  struct DecapSummary {
    std::uint64_t operator()(const GroupFlow& flow) const noexcept {
      if (flow.local_vms.empty()) return 0;
      return (std::uint64_t{flow.local_vms.size()} << 32) |
             flow.local_vms.front();
    }
  };
  using FlowTable = GroupTable<GroupFlow, DecapSummary>;

  void install_flow(net::Ipv4Address group, GroupFlow flow);
  void remove_flow(net::Ipv4Address group);
  bool has_flow(net::Ipv4Address group) const {
    return flows_.contains(group.value);
  }
  std::size_t flow_count() const noexcept { return flows_.size(); }
  // Installed flow for `group`, or nullptr. The streaming control plane's
  // read-back (stream::ControlPlane::installed) calls it on every diff to
  // ask what a host slot holds; tests and tools read it too. Valid until
  // the next install_flow or remove_flow on this hypervisor.
  const GroupFlow* flow(net::Ipv4Address group) const {
    return flows_.find(group.value);
  }
  // Prefetch hooks for a caller that knows a host several steps before it
  // looks the host up (DESIGN.md §4, "Prefetch pipeline"); neither changes
  // anything. prefetch_leading_lines() loads the members every lookup and
  // decap read first: the flow table's header and the stats. prefetch(group),
  // issued once those are warm, loads the probe line where flow(group) and
  // process() start.
  void prefetch_leading_lines() const noexcept {
    util::prefetch(&flows_);
    util::prefetch(&stats_);
  }
  void prefetch(net::Ipv4Address group) const noexcept {
    flows_.prefetch(group.value);
  }
  // Full table view, keyed by group address value (iteration order is
  // unspecified; stream::fabric_state_digest sums per-rule terms).
  const FlowTable& flows() const noexcept {
    return flows_;
  }

  // VM -> network: returns the encapsulated packet, or nullopt if this host
  // has no flow for the group (non-members cannot source into a group).
  // Throws std::length_error when the outer IPv4 datagram would exceed
  // 65,535 bytes (its 16-bit total_length).
  std::optional<net::Packet> encapsulate(net::Ipv4Address group,
                                         std::span<const std::uint8_t> payload);

  // Network -> VMs: decapsulates and appends one payload view per local
  // member VM to `arena` (out_port = VM index), returning the span it
  // appended, valid until the arena is next mutated. When `decision` is
  // non-null the hypervisor fills it with its deliver/discard decision.
  std::span<Emission> process(const net::PacketView& packet,
                              EmissionArena& arena,
                              obs::HopDecision* decision = nullptr);

  const HypervisorStats& stats() const noexcept { return stats_; }

 private:
  // Decap-hot members first: every process() call reads and writes these.
  FlowTable flows_;
  HypervisorStats stats_;
  elmo::HeaderCodec codec_;  // to skip unstripped p-rules (legacy leaves, §7)
  topo::HostId host_;
};

}  // namespace elmo::dp
