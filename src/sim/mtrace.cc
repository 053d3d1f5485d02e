#include "sim/mtrace.h"

#include <sstream>

#include "obs/provenance.h"

namespace elmo::sim {

MtraceReport mtrace(Fabric& fabric, const elmo::Controller& controller,
                    elmo::GroupId group, topo::HostId sender,
                    std::size_t payload_bytes) {
  const auto& g = controller.group(group);

  // The probe's share of the fabric's counters, which keep running: they
  // are monotonic series for whoever samples them.
  const auto counters = [&fabric] {
    return MtraceCounters{fabric.aggregate_switch_stats(topo::Layer::kLeaf),
                          fabric.aggregate_switch_stats(topo::Layer::kSpine),
                          fabric.aggregate_switch_stats(topo::Layer::kCore),
                          fabric.aggregate_hypervisor_stats()};
  };
  const auto before = counters();

  // The probe records its decision tree in a log of its own; the fabric's
  // log is attached again afterwards, also if the walk throws.
  obs::ProvenanceLog probe_log;
  struct RestoreLog {
    Fabric& fabric;
    obs::ProvenanceLog* previous;
    ~RestoreLog() { fabric.set_provenance(previous); }
  } restore{fabric, fabric.provenance()};
  fabric.set_provenance(&probe_log);
  const auto result = fabric.send(sender, g.address, payload_bytes);

  MtraceReport report;
  report.counters = counters();
  report.counters.leaves -= before.leaves;
  report.counters.spines -= before.spines;
  report.counters.cores -= before.cores;
  report.counters.hypervisors -= before.hypervisors;
  report.total_wire_bytes = result.total_wire_bytes;
  report.max_depth = result.max_hops + 1;
  for (const auto& [host, copies] : result.host_copies) {
    (void)copies;
    if (g.tree != nullptr && g.tree->is_member(host)) {
      ++report.members_reached;
    } else {
      ++report.redundant_copies;
    }
  }

  // One MtraceHop per hop of the probe's decision tree, parent by parent in
  // walk order (a hop's index is its place in the FIFO, so a parent comes
  // before its children), each parent's children in port order.
  if (probe_log.empty()) return report;  // the sender has no flow
  const auto& tree = probe_log.last().hops;
  const auto node_of = [&tree](std::size_t hop) {
    return NodeRef{tree[hop].layer, tree[hop].node};
  };
  std::vector<std::size_t> depth(tree.size(), 0);
  for (std::size_t parent = 0; parent < tree.size(); ++parent) {
    for (const auto child : tree[parent].children) {
      depth[child] = depth[parent] + 1;
      report.hops.push_back(MtraceHop{node_of(parent), node_of(child),
                                      tree[child].bytes_in, depth[child]});
    }
  }
  return report;
}

std::string MtraceReport::render() const {
  std::ostringstream out;
  out << "mtrace: " << hops.size() << " link transmissions, "
      << members_reached << " members reached, " << redundant_copies
      << " redundant copies, " << total_wire_bytes << " wire bytes\n";
  for (const auto& hop : hops) {
    out << std::string(2 * hop.depth, ' ')
        << obs::node_name(hop.from.layer, hop.from.id) << " -> "
        << obs::node_name(hop.to.layer, hop.to.id) << "  (" << hop.bytes
        << "B on wire)\n";
  }
  auto layer_line = [&out](const char* name, const dp::SwitchStats& s) {
    if (s.packets_in == 0) return;
    out << "  " << name << ": " << s.packets_in << " in, " << s.copies_out
        << " out, " << s.prule_matches << " p-rule, " << s.upstream_matches
        << " upstream, " << s.srule_matches << " s-rule, "
        << s.default_matches << " default, " << s.drops << " drops, "
        << s.header_pops << " pops (" << s.header_pop_bytes << "B)\n";
  };
  out << "counters (probe delta):\n";
  layer_line("leaf ", counters.leaves);
  layer_line("spine", counters.spines);
  layer_line("core ", counters.cores);
  const auto& h = counters.hypervisors;
  out << "  host : " << h.received << " received, " << h.delivered_to_vms
      << " VM deliveries, " << h.discarded << " discarded\n";
  return out.str();
}

}  // namespace elmo::sim
