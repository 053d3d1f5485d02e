#include "dataplane/forwarding.h"

#include <algorithm>
#include <stdexcept>

namespace elmo::dp {

net::PacketView SectionCache::Entry::host_template(
    const net::PacketView& packet) {
  if (auto shared = host_template_.lock()) {
    const std::size_t size = shared->size();
    return net::PacketView{std::move(shared), 0, size};
  }
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto payload =
      packet.from(net::kOuterHeaderBytes).subspan(index_.sections().back().end);

  net::Packet stripped =
      net::Packet::with_size(outer.size() + payload.size(), /*headroom=*/0);
  const auto out = stripped.mutable_bytes();
  std::copy(outer.begin(), outer.end(), out.begin());
  std::copy(payload.begin(), payload.end(), out.begin() + outer.size());
  // Deparser clears the VXLAN "Elmo present" flag.
  out[net::EthernetHeader::kSize + net::Ipv4Header::kSize +
      net::UdpHeader::kSize] &= ~std::uint8_t{0x01};
  net::count_copy(out.size());
  net::PacketView view{std::move(stripped)};
  host_template_ = view.buffer();
  return view;
}

SectionCache::Entry& SectionCache::parse(const elmo::HeaderCodec& codec,
                                         const net::PacketView& packet,
                                         topo::Layer layer) {
  if (packet.size() < net::kOuterHeaderBytes) {
    throw std::invalid_argument{"NetworkSwitch: runt packet"};
  }
  // The outer encapsulation is always the contiguous front of the view; the
  // Elmo sections are the contiguous tail behind it (any popped sections are
  // the view's hole in between).
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto tail = packet.from(net::kOuterHeaderBytes);
  const auto& buffer = packet.buffer();
  const auto* base = buffer->bytes().data();
  const auto head = static_cast<std::size_t>(outer.data() - base);
  const auto offset = static_cast<std::size_t>(tail.data() - base);
  for (std::size_t i = 0; i < size_; ++i) {
    auto& e = entries_[i];
    if (e.offset_ == offset && e.length_ == tail.size() && e.layer_ == layer &&
        e.head_ == head && !e.buffer_.owner_before(buffer) &&
        !buffer.owner_before(e.buffer_)) {
      return e;
    }
  }

  const auto eth = net::EthernetHeader::parse(outer);
  if (eth.ether_type != net::kEtherTypeIpv4) {
    throw std::invalid_argument{"NetworkSwitch: not IPv4"};
  }
  // (UDP/VXLAN validated structurally by the section offsets.)
  const auto ip =
      net::Ipv4Header::parse(outer.subspan(net::EthernetHeader::kSize));
  if (size_ == entries_.size()) entries_.emplace_back();
  auto& e = entries_[size_];
  codec.index_layer(tail, layer, e.index_);  // on throw, size_ is unchanged
  e.buffer_ = buffer;
  e.head_ = head;
  e.offset_ = offset;
  e.length_ = tail.size();
  e.layer_ = layer;
  e.outer_dst_ = ip.dst;
  e.host_template_.reset();
  ++size_;
  return e;
}

void SectionCache::clear() noexcept {
  for (std::size_t i = 0; i < size_; ++i) {
    entries_[i].buffer_.reset();
    entries_[i].host_template_.reset();
  }
  size_ = 0;
}

}  // namespace elmo::dp
