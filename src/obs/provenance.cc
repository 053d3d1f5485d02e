#include "obs/provenance.h"

#include <sstream>
#include <utility>

namespace elmo::obs {

const char* to_string(RuleClass rule) {
  switch (rule) {
    case RuleClass::kNone:
      return "none";
    case RuleClass::kSource:
      return "source";
    case RuleClass::kPRule:
      return "p-rule";
    case RuleClass::kUpstream:
      return "upstream";
    case RuleClass::kSRule:
      return "s-rule";
    case RuleClass::kDefault:
      return "default p-rule";
    case RuleClass::kHostDeliver:
      return "deliver";
    case RuleClass::kHostDiscard:
      return "discard";
    case RuleClass::kDrop:
      return "drop";
  }
  return "?";
}

namespace {

// Appends a hop to `trace` and links it under `parent`; returns its index.
std::size_t add_hop(SendTrace& trace, topo::Layer layer, std::uint32_t node,
                    std::size_t parent, std::size_t bytes_in, bool lost) {
  auto& hops = trace.hops;
  const std::size_t index = hops.size();
  ProvHop hop;
  hop.layer = layer;
  hop.node = node;
  hop.parent = parent;
  hop.bytes_in = bytes_in;
  hop.lost = lost;
  hops.push_back(std::move(hop));
  if (parent == kNoProvParent) return index;
  // Siblings stay in (layer, node), i.e. port, order, lost in flight or not.
  auto& siblings = hops[parent].children;
  auto at = siblings.end();
  for (; at != siblings.begin(); --at) {
    const auto& prev = hops[at[-1]];
    if (std::pair{prev.layer, prev.node} < std::pair{layer, node}) break;
  }
  siblings.insert(at, index);
  return index;
}

}  // namespace

std::size_t ProvenanceLog::begin_send(std::uint32_t group,
                                      std::uint32_t src_host,
                                      std::size_t bytes) {
  auto& trace = sends_.emplace_back();
  trace.group = group;
  trace.src_host = src_host;
  const auto root =
      add_hop(trace, topo::Layer::kHost, src_host, kNoProvParent, bytes, false);
  trace.hops[root].decision.rule = RuleClass::kSource;
  return root;
}

std::size_t ProvenanceLog::begin_hop(topo::Layer layer, std::uint32_t node,
                                     std::size_t parent,
                                     std::size_t bytes_in) {
  return add_hop(sends_.back(), layer, node, parent, bytes_in, false);
}

void ProvenanceLog::lost_copy(topo::Layer layer, std::uint32_t node,
                              std::size_t parent, std::size_t bytes) {
  add_hop(sends_.back(), layer, node, parent, bytes, true);
}

void ProvenanceLog::clear() { sends_.clear(); }

std::string node_name(topo::Layer layer, std::uint32_t node) {
  switch (layer) {
    case topo::Layer::kHost:
      return "host" + std::to_string(node);
    case topo::Layer::kLeaf:
      return "L" + std::to_string(node);
    case topo::Layer::kSpine:
      return "S" + std::to_string(node);
    case topo::Layer::kCore:
      return "C" + std::to_string(node);
  }
  return "?";
}

namespace {

void render_hop(const SendTrace& trace, std::size_t index, std::size_t depth,
                std::ostringstream& out) {
  const auto& hop = trace.hops[index];
  out << std::string(2 * depth, ' ') << node_name(hop.layer, hop.node);
  if (hop.lost) {
    out << "  [lost in flight]\n";
    return;
  }
  if (index == 0) {
    out << "  [source, " << hop.bytes_in << "B on wire]\n";
  } else {
    out << "  [" << describe(hop.decision) << ", " << hop.bytes_in
        << "B in]\n";
  }
  for (const auto child : hop.children) {
    render_hop(trace, child, depth + 1, out);
  }
}

}  // namespace

std::string describe(const HopDecision& decision) {
  std::ostringstream out;
  out << to_string(decision.rule);
  if (decision.legacy) out << " (legacy)";
  if (decision.rule == RuleClass::kPRule && decision.prule_index >= 0) {
    out << " #" << decision.prule_index;
    if (decision.prule_shared) out << " shared";
  }
  if (decision.bitmap.any()) out << " ports=" << decision.bitmap.to_string();
  if (decision.rule == RuleClass::kUpstream) {
    if (decision.multipath) {
      out << " up=multipath";
    } else if (decision.up_bitmap.any()) {
      out << " up=" << decision.up_bitmap.to_string();
    }
  }
  if (decision.egress.any()) {
    out << " egress=" << decision.egress.to_string();
  }
  if (decision.popped_bytes > 0) {
    out << " popped " << decision.popped_bytes << "B";
  }
  if (decision.rule == RuleClass::kHostDeliver) {
    out << " (" << decision.vm_deliveries << " VMs)";
  }
  return out.str();
}

std::string render_trace(const SendTrace& trace) {
  std::ostringstream out;
  out << "send group=" << trace.group << " from host" << trace.src_host
      << " (" << (trace.hops.empty() ? 0 : trace.hops.size() - 1)
      << " hops)\n";
  if (!trace.hops.empty()) render_hop(trace, 0, 0, out);
  return out.str();
}

}  // namespace elmo::obs
