// Multicast traceroute (paper §7, Monitoring: "Debugging multicast traffic
// has been an issue, with difficulties troubleshooting copies of a multicast
// packet and the lack of tools (like traceroute and ping)").
//
// Mtrace sends one probe through the packet-level data plane and renders the
// replication tree the fabric actually executed — per-hop switches, per-link
// header sizes (showing the p-rule popping), and the final per-host outcomes
// (member delivery, redundant copy, loss). The tree is the probe's decision
// tree from the provenance log (DESIGN.md §10), siblings in port order; the
// counter section is `after -= before` over the fabric's counter tables.
#pragma once

#include <string>
#include <vector>

#include "elmo/controller.h"
#include "sim/fabric.h"

namespace elmo::sim {

struct MtraceHop {
  NodeRef from;
  NodeRef to;
  std::uint64_t bytes = 0;    // on-the-wire size of this copy (a lost copy
                              // counts the size it left with)
  std::size_t depth = 0;      // hops from the sender
};

// What the probe alone did to the per-element counters: fleet-wide
// SwitchStats summed over each switch layer, plus hypervisor deltas. The
// delta view turns the aggregate telemetry (DESIGN.md §9) into a per-probe
// diagnosis — e.g. default_matches > 0 means this group's header did not
// cover some switch and the probe fell back to the default p-rule there.
struct MtraceCounters {
  dp::SwitchStats leaves;
  dp::SwitchStats spines;
  dp::SwitchStats cores;
  dp::HypervisorStats hypervisors;
};

struct MtraceReport {
  std::vector<MtraceHop> hops;        // walk (breadth-first) order
  std::size_t members_reached = 0;
  std::size_t redundant_copies = 0;   // non-member hosts hit
  std::size_t max_depth = 0;
  std::uint64_t total_wire_bytes = 0;
  MtraceCounters counters;            // probe-only deltas

  // Human-readable tree rendering.
  std::string render() const;
};

// Probes `group` from `sender` (payload_bytes of filler). The probe's tree
// is recorded in a provenance log of its own; whatever log the fabric had
// attached (or none) is attached again afterwards, and it does not see the
// probe. The fabric's counters keep running: the probe adds to them.
MtraceReport mtrace(Fabric& fabric, const elmo::Controller& controller,
                    elmo::GroupId group, topo::HostId sender,
                    std::size_t payload_bytes = 64);

}  // namespace elmo::sim
