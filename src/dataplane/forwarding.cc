#include "dataplane/forwarding.h"

#include "net/headers.h"

namespace elmo::dp {

const elmo::SectionIndex& SectionCache::index(const elmo::HeaderCodec& codec,
                                              const net::PacketView& packet,
                                              topo::Layer layer) {
  const auto tail = packet.from(net::kOuterHeaderBytes);
  const auto& buffer = packet.buffer();
  const auto offset =
      static_cast<std::size_t>(tail.data() - buffer->bytes().data());
  for (std::size_t i = 0; i < size_; ++i) {
    const auto& e = entries_[i];
    if (e.offset == offset && e.length == tail.size() && e.layer == layer &&
        !e.buffer.owner_before(buffer) && !buffer.owner_before(e.buffer)) {
      return e.index;
    }
  }
  if (size_ == entries_.size()) entries_.emplace_back();
  auto& e = entries_[size_];
  codec.index_layer(tail, layer, e.index);  // on throw, size_ is unchanged
  e.buffer = buffer;
  e.offset = offset;
  e.length = tail.size();
  e.layer = layer;
  ++size_;
  return e.index;
}

void SectionCache::clear() noexcept {
  for (std::size_t i = 0; i < size_; ++i) entries_[i].buffer.reset();
  size_ = 0;
}

}  // namespace elmo::dp
