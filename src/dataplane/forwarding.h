// The call shape shared by the fabric's two forwarding elements.
//
// Elmo has exactly two kinds of forwarding element: the P4 network switch
// (dp::NetworkSwitch, leaf/spine/core) and the PISCES hypervisor switch
// (dp::HypervisorSwitch). They are plain classes, not subclasses of an
// interface: each has a non-virtual process(view, arena, decision) that
// consumes one PacketView and emits zero or more (out_port, PacketView)
// pairs. Emissions are appended to a caller-provided EmissionArena rather
// than returned as fresh vectors, so a fabric walk reuses one arena across
// every hop and performs no steady-state allocation. `decision` is an
// optional obs::HopDecision slot (null = not recording): a walk that keeps
// provenance passes the slot of the hop it just opened, and the element
// fills it in place. Elements hold no observer state of their own.
//
// Port conventions:
//   * Network switches: out_port indexes the switch's ports (downstream
//     ports first, then uplinks), exactly as the topology wires them. Elmo
//     forwarding is ingress-agnostic, so process() takes no ingress port.
//   * Hypervisors: a packet arriving from the network is decapsulated and
//     emitted once per local member VM, with out_port = the VM index and
//     the packet cursor advanced to the inner payload (zero-copy).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "elmo/header.h"
#include "net/headers.h"
#include "net/packet_view.h"
#include "topology/clos.h"

namespace elmo::dp {

struct Emission {
  std::size_t out_port = 0;
  net::PacketView packet;
};

// Per-walk memo of the network switches' parser. Every switch of a layer
// that a send reaches sees the same outer header and the same frozen Elmo
// tail (the sender's buffer, popped to the same section), so the first one
// parses them and the rest read that parse by reference: the outer
// destination (the group) and the tail's index for the layer
// (HeaderCodec::index_layer). At leaves the entry also keeps the host
// template, the packet stripped for host delivery: one deep copy per walk
// (per entry, while a host copy of it lives), not one per delivering leaf.
//
// An entry is keyed by (buffer, the view's head in it, the tail's offset
// and length in it, layer). The head fixes which bytes are the outer
// header: two views of one buffer can share a tail range yet start at
// different heads (one with a popped hole behind its outer header, one
// advanced past those bytes), and only the head tells their outer headers
// apart. The tail range fixes the Elmo bytes and so the payload behind
// them; with the head it fixes every byte of the host template. One cache
// serves the switches of one topology.
//
// The cache holds the buffer, and the template, by weak_ptr: caching never
// pins a buffer or changes a view's use_count(), and since a weak_ptr keeps
// its buffer's control block allocated, an entry whose buffer died never
// matches, even a new buffer at the same address. A template is shared
// while any host copy of it lives and re-stripped after the last one died.
class SectionCache {
 public:
  class Entry {
   public:
    net::Ipv4Address outer_dst() const noexcept { return outer_dst_; }
    const elmo::SectionIndex& index() const noexcept { return index_; }

    // `packet` (the view this entry was found for) stripped for host
    // delivery: its outer header with the VXLAN "Elmo present" flag
    // cleared, then its payload. The first call, and the first after every
    // view of the last template died, makes it (one counted deep copy);
    // the others share it.
    net::PacketView host_template(const net::PacketView& packet);

   private:
    friend class SectionCache;
    std::weak_ptr<const net::PacketBuffer> buffer_;
    std::size_t head_ = 0;
    std::size_t offset_ = 0;
    std::size_t length_ = 0;
    topo::Layer layer_ = topo::Layer::kHost;
    net::Ipv4Address outer_dst_;
    elmo::SectionIndex index_;
    std::weak_ptr<const net::PacketBuffer> host_template_;
  };

  // The parse of `packet` for `layer`, made on first use. Throws
  // std::invalid_argument for a runt or non-IPv4 packet and what
  // index_layer throws for its Elmo tail, leaving no entry behind. Valid
  // until the next parse() or clear().
  Entry& parse(const elmo::HeaderCodec& codec, const net::PacketView& packet,
               topo::Layer layer);

  // Drops every entry; the entries' storage is kept for reuse.
  void clear() noexcept;
  std::size_t size() const noexcept { return size_; }

 private:
  std::vector<Entry> entries_;  // [0, size_) are live
  std::size_t size_ = 0;
};

// Append-only scratch space for one fabric walk. The walk clears it before
// each hop; `resize` down keeps capacity, so a long walk allocates only
// until the widest hop has been seen once. Its SectionCache lives for the
// whole walk: the walk clears it once, at the start.
class EmissionArena {
 public:
  std::size_t mark() const noexcept { return emissions_.size(); }

  void emit(std::size_t out_port, net::PacketView packet) {
    emissions_.push_back(Emission{out_port, std::move(packet)});
  }

  // Emissions appended since `mark`. Valid until the next emit/clear/rewind.
  std::span<Emission> since(std::size_t mark) noexcept {
    return {emissions_.data() + mark, emissions_.size() - mark};
  }

  void rewind(std::size_t mark) { emissions_.resize(mark); }
  void clear() { emissions_.clear(); }
  std::size_t size() const noexcept { return emissions_.size(); }

  SectionCache& section_cache() noexcept { return sections_; }

 private:
  std::vector<Emission> emissions_;
  SectionCache sections_;
};

}  // namespace elmo::dp
