// Software model of an Elmo-capable programmable network switch (paper §4.1).
//
// The pipeline mirrors a PISA chip running the Elmo P4 program:
//
//   1. *Parser* — walks the outer headers, then the Elmo sections, and does
//      match-and-set over p-rules: when it scans this switch's layer section
//      it compares each rule's identifier list against the switch's own id,
//      storing the matched bitmap (and the default bitmap) as metadata. No
//      match-action stage is spent on p-rule lookup (see Appendix A for why
//      that would be prohibitively expensive).
//      In software the section walk is done once per (Elmo tail, layer) per
//      fabric walk, not once per hop: the first switch of a layer indexes
//      the tail (HeaderCodec::index_layer) into the walk's SectionCache and
//      every later one looks its p-rule up (SectionIndex::lookup). The
//      cache is keyed by the buffer held as a weak_ptr, so it never pins a
//      buffer or moves a view's use_count(). A memo on the buffer itself was
//      rejected: it allocated per tail and decoded every bitmap eagerly,
//      which costs more than it saves when a tail is read once (DESIGN.md
//      §4).
//   2. *Ingress* — control flow: upstream rule if the packet still carries
//      this layer's upstream section; otherwise matched p-rule bitmap;
//      otherwise group-table (s-rule) lookup on the outer destination IP;
//      otherwise the default p-rule; otherwise drop.
//   3. *Queue manager* — `bitmap_port_select`: replicates the packet to the
//      ports set in the chosen bitmap.
//   4. *Egress/deparser* — invalidates consumed sections per output copy:
//      everything before the next hop's layer section is removed; copies
//      headed to hosts lose the entire Elmo header.
//
// Replication is zero-copy: popping consumed sections is PacketView cursor
// arithmetic, so all switch-to-switch copies of one packet share the sender's
// buffer. The only bytes copied per process() call are the single stripped
// host-delivery template (outer header with the Elmo flag cleared + payload),
// which every host-bound emission then shares.
//
// The switch holds forwarding state only: tables, mode flags, counters and
// parse scratch. Decision provenance is not switch state — a fabric walk
// that records it hands process() the hop's obs::HopDecision slot, and a
// call without one (null) records nothing (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/common.h"
#include "dataplane/forwarding.h"
#include "dataplane/group_table.h"
#include "elmo/header.h"
#include "net/bitmap.h"
#include "net/packet_view.h"
#include "topology/clos.h"

namespace elmo::obs {
struct HopDecision;
}

namespace elmo::dp {

struct SwitchStats {
  std::uint64_t packets_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t copies_out = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t prule_matches = 0;
  std::uint64_t upstream_matches = 0;
  std::uint64_t srule_matches = 0;
  std::uint64_t default_matches = 0;
  std::uint64_t drops = 0;
  std::uint64_t header_pops = 0;
  std::uint64_t header_pop_bytes = 0;
};

// SwitchStats' field table (dataplane/common.h): elmo_dp_<layer>_<name>.
inline constexpr StatField<SwitchStats> kSwitchStatFields[] = {
    {"packets_in", &SwitchStats::packets_in, "Packets entering the pipeline"},
    {"bytes_in", &SwitchStats::bytes_in, "Bytes entering the pipeline"},
    {"copies_out", &SwitchStats::copies_out, "Replicated copies emitted"},
    {"bytes_out", &SwitchStats::bytes_out, "Bytes emitted across all copies"},
    {"prule_matches", &SwitchStats::prule_matches,
     "Packets forwarded via a parser-matched p-rule bitmap"},
    {"upstream_matches", &SwitchStats::upstream_matches,
     "Packets forwarded via the layer's upstream rule"},
    {"srule_matches", &SwitchStats::srule_matches,
     "Packets forwarded via a group-table s-rule"},
    {"default_matches", &SwitchStats::default_matches,
     "Packets that fell back to the default p-rule"},
    {"drops", &SwitchStats::drops, "Packets dropped (no rule, or switch down)"},
    {"header_pops", &SwitchStats::header_pops,
     "Copies whose consumed Elmo sections were invalidated"},
    {"header_pop_bytes", &SwitchStats::header_pop_bytes,
     "Elmo header bytes removed by pops"},
};
static_assert(covers_every_field(kSwitchStatFields));

constexpr const auto& stat_fields(const SwitchStats&) noexcept {
  return kSwitchStatFields;
}

class NetworkSwitch {
 public:
  // `layer` is kLeaf, kSpine or kCore; `id` the global switch id of that
  // layer. The switch derives its p-rule match identifier (leaf id or pod
  // id) and port geometry from the topology.
  NetworkSwitch(const topo::ClosTopology& topology, topo::Layer layer,
                std::uint32_t id);

  topo::Layer layer() const noexcept { return layer_; }
  std::uint32_t id() const noexcept { return id_; }

  // Legacy mode (paper §7, incremental deployment): the switch cannot parse
  // Elmo headers. It forwards multicast packets purely from its group table
  // (s-rules installed for every group crossing it) and never pops p-rules.
  void set_legacy(bool legacy) noexcept { legacy_ = legacy; }
  bool is_legacy() const noexcept { return legacy_; }

  // Failed-switch modeling (paper §3.3): a down switch blackholes every
  // packet (counted as drops). The controller routes around failures via
  // sender headers; this flag lets the simulated fabric verify that those
  // headers really avoid the dead switch.
  void set_down(bool down) noexcept { down_ = down; }
  bool is_down() const noexcept { return down_; }

  // Group table (s-rules). Capacity policing is the controller's job
  // (SRuleSpace); the switch itself is a dumb table.
  void install_srule(net::Ipv4Address group, net::PortBitmap ports);
  void remove_srule(net::Ipv4Address group);
  std::size_t srule_count() const noexcept { return group_table_.size(); }
  // Installed s-rule bitmap for `group`, or nullptr. The streaming control
  // plane's read-back (stream::ControlPlane::installed) calls it on every
  // diff to ask what a switch slot holds; tests and tools read it too. Valid
  // until the next install_srule or remove_srule on this switch. Unlike
  // HypervisorSwitch::flow() it has no prefetch hook: prefetching switch
  // hops showed no gain (DESIGN.md §4, "Prefetch pipeline").
  const net::PortBitmap* srule(net::Ipv4Address group) const {
    return group_table_.find(group.value);
  }
  // Full table view, keyed by group address value (iteration order is
  // unspecified; stream::fabric_state_digest sums per-rule terms).
  const GroupTable<net::PortBitmap>& srules() const noexcept {
    return group_table_;
  }

  // Full pipeline for one received packet: appends its emissions to `arena`
  // as refcounted views over the incoming buffer and returns the span it
  // appended, valid until the arena is next mutated. When `decision` is
  // non-null the switch fills it with the forwarding decision it made (the
  // fabric walk passes its provenance hop's slot, DESIGN.md §10).
  std::span<Emission> process(const net::PacketView& packet,
                              EmissionArena& arena,
                              obs::HopDecision* decision = nullptr);

  const SwitchStats& stats() const noexcept { return stats_; }

 private:
  // The parser's metadata for one packet: this switch's layer of the Elmo
  // header (SectionIndex::lookup) plus the outer destination, the group.
  struct ParseResult : elmo::LayerParse {
    net::Ipv4Address outer_dst;
  };

  // Parses into parsed_, which is reused so that a hop allocates nothing.
  // The Elmo tail's index comes from the walk's SectionCache in `arena`.
  const ParseResult& parse(const net::PacketView& packet,
                           EmissionArena& arena);

  // Bytes (from the start of the Elmo header) to drop so the copy starts at
  // the first section the receiver still needs.
  std::size_t pop_offset(const std::vector<elmo::SectionExtent>& sections,
                         elmo::SectionTag first_needed) const;

  // The one deep copy of the pipeline: outer header with the VXLAN
  // "Elmo present" flag cleared + payload, shared by every host-bound copy.
  net::PacketView strip_for_host(
      const net::PacketView& packet,
      const std::vector<elmo::SectionExtent>& sections) const;

  std::size_t downstream_ports() const noexcept;
  std::size_t upstream_ports() const noexcept;

  elmo::HeaderCodec codec_;  // also the switch's topology (codec_.topology())
  topo::Layer layer_;
  std::uint32_t id_;
  std::uint32_t match_id_;  // leaf id at leaves, pod id at spines
  // The uplink the multipath flag defers to (paper D2b: "the configured
  // underlying multipathing scheme"), here ECMP on the group hash
  // (topo::group_hash; ClosTopology::ecmp_plane / ecmp_core), so every
  // sender of a group takes the group's plane: the plane
  // Controller::route_failures reads to decide which groups route around a
  // failed switch.
  std::size_t pick_uplink(std::uint64_t hash) const;

  GroupTable<net::PortBitmap> group_table_;
  SwitchStats stats_;
  bool legacy_ = false;
  bool down_ = false;
  ParseResult parsed_;  // scratch for parse()
};

}  // namespace elmo::dp
