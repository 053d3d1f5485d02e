#include "dataplane/network_switch.h"

#include <algorithm>
#include <stdexcept>

#include "obs/provenance.h"

namespace elmo::dp {

NetworkSwitch::NetworkSwitch(const topo::ClosTopology& topology,
                             topo::Layer layer, std::uint32_t id)
    : codec_{topology}, layer_{layer}, id_{id} {
  switch (layer) {
    case topo::Layer::kLeaf:
      match_id_ = id;  // global leaf id
      break;
    case topo::Layer::kSpine:
      match_id_ = topology.pod_of_spine(id);  // logical spine == pod
      break;
    case topo::Layer::kCore:
      match_id_ = 0;  // single logical core, no identifier needed
      break;
    case topo::Layer::kHost:
      throw std::invalid_argument{"NetworkSwitch: host is not a switch"};
  }
}

std::size_t NetworkSwitch::pick_uplink(std::uint64_t hash) const {
  const auto& topology = codec_.topology();
  return layer_ == topo::Layer::kLeaf ? topology.ecmp_plane(hash)
                                      : topology.ecmp_core(hash);
}

void NetworkSwitch::install_srule(net::Ipv4Address group,
                                  net::PortBitmap ports) {
  group_table_.insert_or_assign(group.value, std::move(ports));
}

void NetworkSwitch::remove_srule(net::Ipv4Address group) {
  group_table_.erase(group.value);
}

std::size_t NetworkSwitch::downstream_ports() const noexcept {
  const auto& topology = codec_.topology();
  switch (layer_) {
    case topo::Layer::kLeaf:
      return topology.leaf_down_ports();
    case topo::Layer::kSpine:
      return topology.spine_down_ports();
    default:
      return topology.core_ports();
  }
}

std::size_t NetworkSwitch::upstream_ports() const noexcept {
  const auto& topology = codec_.topology();
  switch (layer_) {
    case topo::Layer::kLeaf:
      return topology.leaf_up_ports();
    case topo::Layer::kSpine:
      return topology.spine_up_ports();
    default:
      return 0;
  }
}

const NetworkSwitch::ParseResult& NetworkSwitch::parse(
    const net::PacketView& packet, EmissionArena& arena) {
  if (packet.size() < net::kOuterHeaderBytes) {
    throw std::invalid_argument{"NetworkSwitch: runt packet"};
  }
  ParseResult& result = parsed_;

  // The outer encapsulation is always the contiguous front of the view; the
  // Elmo sections are the contiguous tail behind it (any popped sections are
  // the view's hole in between).
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto eth = net::EthernetHeader::parse(outer);
  if (eth.ether_type != net::kEtherTypeIpv4) {
    throw std::invalid_argument{"NetworkSwitch: not IPv4"};
  }
  const auto ip = net::Ipv4Header::parse(outer.subspan(net::EthernetHeader::kSize));
  result.outer_dst = ip.dst;
  // (UDP/VXLAN validated structurally by the offsets below.)

  // The Elmo sections are scanned by the first switch of this layer the
  // walk reaches; the rest find their p-rule in that scan's index.
  arena.section_cache().index(codec_, packet, layer_).lookup(match_id_,
                                                             result);
  return result;
}

std::size_t NetworkSwitch::pop_offset(
    const std::vector<elmo::SectionExtent>& sections,
    elmo::SectionTag first_needed) const {
  for (const auto& e : sections) {
    if (e.tag == elmo::SectionTag::kEnd ||
        static_cast<int>(e.tag) >= static_cast<int>(first_needed)) {
      return e.begin;
    }
  }
  return 0;
}

net::PacketView NetworkSwitch::strip_for_host(
    const net::PacketView& packet,
    const std::vector<elmo::SectionExtent>& sections) const {
  const std::size_t elmo_bytes = sections.back().end;
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto payload =
      packet.from(net::kOuterHeaderBytes).subspan(elmo_bytes);

  net::Packet stripped =
      net::Packet::with_size(outer.size() + payload.size(), /*headroom=*/0);
  const auto out = stripped.mutable_bytes();
  std::copy(outer.begin(), outer.end(), out.begin());
  std::copy(payload.begin(), payload.end(), out.begin() + outer.size());
  // Deparser clears the VXLAN "Elmo present" flag.
  out[net::EthernetHeader::kSize + net::Ipv4Header::kSize +
      net::UdpHeader::kSize] &= ~std::uint8_t{0x01};
  net::count_copy(out.size());
  return net::PacketView{std::move(stripped)};
}

std::span<Emission> NetworkSwitch::process(const net::PacketView& packet,
                                           EmissionArena& arena,
                                           obs::HopDecision* decision) {
  const auto mark = arena.mark();
  ++stats_.packets_in;
  stats_.bytes_in += packet.size();
  const std::uint64_t popped_before = stats_.header_pop_bytes;

  // Decision provenance (DESIGN.md §10): one record per process() call,
  // written only into a slot the caller handed in — without one the cost is
  // this null test. `bitmap` is the rule as matched (before masking); the
  // egress set is reconstructed from the emissions (after multipath masking).
  auto record = [&](obs::RuleClass cls, const net::PortBitmap* bitmap,
                    const elmo::UpstreamRule* up, bool shared, int index) {
    if (decision == nullptr) return;
    obs::HopDecision& dec = *decision;
    dec.rule = cls;
    dec.legacy = legacy_;
    dec.prule_index = index;
    dec.prule_shared = shared;
    if (bitmap != nullptr) dec.bitmap = *bitmap;
    if (up != nullptr) {
      dec.multipath = up->multipath;
      dec.up_bitmap = up->up;
    }
    dec.popped_bytes =
        static_cast<std::size_t>(stats_.header_pop_bytes - popped_before);
    const auto out = arena.since(mark);
    if (!out.empty()) {
      dec.egress = net::PortBitmap{downstream_ports() + upstream_ports()};
      for (const auto& e : out) dec.egress.set(e.out_port);
    }
  };

  if (down_) {
    ++stats_.drops;
    record(obs::RuleClass::kDrop, nullptr, nullptr, false, -1);
    return arena.since(mark);
  }

  if (legacy_) {
    // A legacy chip: ordinary IP-multicast group-table lookup on the outer
    // destination, no Elmo parsing, no header popping — every copy is the
    // unmodified incoming view.
    const auto ip = net::Ipv4Header::parse(
        packet.front(net::kOuterHeaderBytes).subspan(net::EthernetHeader::kSize));
    const net::PortBitmap* hit = group_table_.find(ip.dst.value);
    if (hit != nullptr) {
      ++stats_.srule_matches;
      hit->for_each_set([&](std::size_t port) { arena.emit(port, packet); });
    } else {
      ++stats_.drops;
    }
    const auto out = arena.since(mark);
    stats_.copies_out += out.size();
    for (const auto& e : out) stats_.bytes_out += e.packet.size();
    record(hit != nullptr ? obs::RuleClass::kSRule : obs::RuleClass::kDrop,
           hit, nullptr, false, -1);
    return out;
  }

  const auto& pr = parse(packet, arena);

  // Where do downstream copies point, and which section does the next hop
  // still need?
  const bool down_to_hosts = layer_ == topo::Layer::kLeaf;
  const auto down_needed = layer_ == topo::Layer::kCore
                               ? elmo::SectionTag::kSpineRules
                               : elmo::SectionTag::kLeafRules;
  auto emit_down = [&](const net::PortBitmap& bitmap) {
    if (down_to_hosts) {
      // One stripped template, shared (refcounted) by every host copy.
      net::PacketView host_copy;
      bool built = false;
      bitmap.for_each_set([&](std::size_t port) {
        if (!built) {
          host_copy = strip_for_host(packet, pr.sections);
          built = true;
          ++stats_.header_pops;
          stats_.header_pop_bytes += pr.sections.back().end;
        }
        arena.emit(port, host_copy);
      });
      return;
    }
    const std::size_t drop = pop_offset(pr.sections, down_needed);
    net::PacketView down_copy = packet;
    if (drop > 0) {
      down_copy.erase(net::kOuterHeaderBytes, drop);
      ++stats_.header_pops;
      stats_.header_pop_bytes += drop;
    }
    bitmap.for_each_set(
        [&](std::size_t port) { arena.emit(port, down_copy); });
  };

  obs::RuleClass cls = obs::RuleClass::kDrop;
  const net::PortBitmap* chosen = nullptr;
  const elmo::UpstreamRule* chosen_up = nullptr;

  if (pr.upstream) {
    ++stats_.upstream_matches;
    cls = obs::RuleClass::kUpstream;
    chosen = &pr.upstream->down;
    chosen_up = &*pr.upstream;
    emit_down(pr.upstream->down);
    // Upward copies: everything before the *next layer's* upstream/core
    // section is invalidated.
    const auto up_needed = layer_ == topo::Layer::kLeaf
                               ? elmo::SectionTag::kUSpine
                               : elmo::SectionTag::kCore;
    const std::size_t drop = pop_offset(pr.sections, up_needed);
    net::PacketView up_copy = packet;
    if (drop > 0) {
      up_copy.erase(net::kOuterHeaderBytes, drop);
      ++stats_.header_pops;
      stats_.header_pop_bytes += drop;
    }
    const std::size_t base = downstream_ports();
    if (pr.upstream->multipath) {
      // Per group: every sender of the group takes the group's plane, the
      // one the controller's failure predicate reads.
      arena.emit(base + pick_uplink(topo::group_hash(pr.outer_dst)), up_copy);
    } else {
      pr.upstream->up.for_each_set(
          [&](std::size_t port) { arena.emit(base + port, up_copy); });
    }
  } else if (layer_ == topo::Layer::kCore && pr.core_bitmap) {
    ++stats_.prule_matches;
    cls = obs::RuleClass::kPRule;
    chosen = &*pr.core_bitmap;
    emit_down(*pr.core_bitmap);
  } else if (pr.matched) {
    ++stats_.prule_matches;
    cls = obs::RuleClass::kPRule;
    chosen = &*pr.matched;
    emit_down(*pr.matched);
  } else if (const auto* srule = group_table_.find(pr.outer_dst.value)) {
    ++stats_.srule_matches;
    cls = obs::RuleClass::kSRule;
    chosen = srule;
    emit_down(*srule);
  } else if (pr.default_rule) {
    ++stats_.default_matches;
    cls = obs::RuleClass::kDefault;
    chosen = &*pr.default_rule;
    emit_down(*pr.default_rule);
  } else {
    ++stats_.drops;
  }

  const auto out = arena.since(mark);
  stats_.copies_out += out.size();
  for (const auto& e : out) stats_.bytes_out += e.packet.size();
  record(cls, chosen, chosen_up, pr.matched_shared, pr.matched_index);
  return out;
}

}  // namespace elmo::dp
