#include "sim/mtrace.h"

#include <deque>
#include <iterator>
#include <sstream>

namespace elmo::sim {

std::string to_string(const NodeRef& node) {
  switch (node.layer) {
    case topo::Layer::kHost:
      return "host" + std::to_string(node.id);
    case topo::Layer::kLeaf:
      return "L" + std::to_string(node.id);
    case topo::Layer::kSpine:
      return "S" + std::to_string(node.id);
    case topo::Layer::kCore:
      return "C" + std::to_string(node.id);
  }
  return "?";
}

MtraceReport mtrace(Fabric& fabric, const elmo::Controller& controller,
                    elmo::GroupId group, topo::HostId sender,
                    std::size_t payload_bytes) {
  const auto& g = controller.group(group);

  // Counter snapshots before the probe; the report carries the deltas, i.e.
  // what this one packet did. The fabric's own counters are left running:
  // they are monotonic series for whoever samples them.
  const auto links_before = fabric.links();
  const auto leaves_before = fabric.aggregate_switch_stats(topo::Layer::kLeaf);
  const auto spines_before =
      fabric.aggregate_switch_stats(topo::Layer::kSpine);
  const auto cores_before = fabric.aggregate_switch_stats(topo::Layer::kCore);
  const auto hosts_before = fabric.aggregate_hypervisor_stats();

  const auto result = fabric.send(sender, g.address, payload_bytes);

  auto switch_delta = [](dp::SwitchStats after, const dp::SwitchStats& before) {
    after.packets_in -= before.packets_in;
    after.bytes_in -= before.bytes_in;
    after.copies_out -= before.copies_out;
    after.bytes_out -= before.bytes_out;
    after.prule_matches -= before.prule_matches;
    after.upstream_matches -= before.upstream_matches;
    after.srule_matches -= before.srule_matches;
    after.default_matches -= before.default_matches;
    after.drops -= before.drops;
    after.header_pops -= before.header_pops;
    after.header_pop_bytes -= before.header_pop_bytes;
    return after;
  };

  MtraceReport report;
  report.counters.leaves = switch_delta(
      fabric.aggregate_switch_stats(topo::Layer::kLeaf), leaves_before);
  report.counters.spines = switch_delta(
      fabric.aggregate_switch_stats(topo::Layer::kSpine), spines_before);
  report.counters.cores = switch_delta(
      fabric.aggregate_switch_stats(topo::Layer::kCore), cores_before);
  {
    auto h = fabric.aggregate_hypervisor_stats();
    h.sent -= hosts_before.sent;
    h.bytes_sent -= hosts_before.bytes_sent;
    h.received -= hosts_before.received;
    h.bytes_received -= hosts_before.bytes_received;
    h.delivered_to_vms -= hosts_before.delivered_to_vms;
    h.delivered_bytes -= hosts_before.delivered_bytes;
    h.discarded -= hosts_before.discarded;
    report.counters.hypervisors = h;
  }
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

  // Reconstruct the tree breadth-first from the probe's per-link counters.
  auto links = fabric.links();
  for (auto it = links.begin(); it != links.end();) {
    if (const auto before = links_before.find(it->first);
        before != links_before.end()) {
      it->second.packets -= before->second.packets;
      it->second.bytes -= before->second.bytes;
    }
    it = it->second.packets == 0 ? links.erase(it) : std::next(it);
  }
  std::map<NodeRef, std::size_t> depth;
  const NodeRef root{topo::Layer::kHost, sender};
  depth[root] = 0;
  std::deque<NodeRef> frontier{root};
  while (!frontier.empty()) {
    const auto node = frontier.front();
    frontier.pop_front();
    for (const auto& [edge, stats] : links) {
      if (!(edge.first == node)) continue;
      MtraceHop hop;
      hop.from = edge.first;
      hop.to = edge.second;
      hop.bytes = stats.bytes / stats.packets;  // per-copy size on this link
      hop.depth = depth[node] + 1;
      report.hops.push_back(hop);
      if (!depth.contains(edge.second)) {
        depth[edge.second] = hop.depth;
        if (edge.second.layer != topo::Layer::kHost) {
          frontier.push_back(edge.second);
        }
      }
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
    out << std::string(2 * hop.depth, ' ') << to_string(hop.from) << " -> "
        << to_string(hop.to) << "  (" << hop.bytes << "B on wire)\n";
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
