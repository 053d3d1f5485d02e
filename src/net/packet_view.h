// Zero-copy packet views for the forwarding pipeline.
//
// PacketBuffer is a refcounted, immutable byte buffer: once a Packet enters
// the fabric its bytes are frozen and every replica of it on the wire is a
// PacketView — a (buffer, cursor) pair that costs a refcount bump to copy.
//
// A PacketView describes its logical bytes as the buffer range [head, end)
// minus at most one *hole* [skip_at, skip_at + skip_len) expressed in logical
// (post-head) offsets:
//
//     logical bytes = buf[head, head+skip_at) ++ buf[head+skip_at+skip_len, end)
//
// The hole is how Elmo's per-hop p-rule popping becomes cursor arithmetic:
// every hop removes bytes at the same logical offset (right behind the outer
// encapsulation), so consecutive pops extend one hole and never copy. An
// `erase` that cannot be expressed by the hole falls back to copy-on-write:
// the view gathers into a fresh buffer (counted in net::copy_stats()) and
// detaches from its siblings — views sharing the old buffer are untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/packet.h"

namespace elmo::net {

class PacketBuffer {
 public:
  explicit PacketBuffer(std::vector<std::uint8_t> data)
      : data_{std::move(data)} {}

  std::span<const std::uint8_t> bytes() const noexcept { return data_; }
  std::size_t size() const noexcept { return data_.size(); }

 private:
  std::vector<std::uint8_t> data_;
};

class PacketView {
 public:
  PacketView() = default;

  // Adopts the packet's storage without copying; the packet is left empty.
  explicit PacketView(Packet&& packet);

  // Copies `data` into a fresh buffer (counted as a deep copy).
  explicit PacketView(std::span<const std::uint8_t> data);

  // Wraps an already-shared buffer range (no hole).
  PacketView(std::shared_ptr<const PacketBuffer> buffer, std::size_t head,
             std::size_t end);

  // Copies/moves are cheap: a shared_ptr refcount bump plus four integers.

  std::size_t size() const noexcept {
    return (end_ - head_) - skip_len_;
  }
  bool empty() const noexcept { return size() == 0; }

  // True when the logical bytes are one contiguous range of the buffer.
  bool contiguous() const noexcept { return skip_len_ == 0; }

  // Whole logical contents; requires contiguous().
  std::span<const std::uint8_t> bytes() const;

  // The first `n` logical bytes as one span; requires that the hole does not
  // start before `n`.
  std::span<const std::uint8_t> front(std::size_t n) const;

  // Logical bytes [offset, size()) as one span; requires that `offset` is at
  // or past the hole (or that there is no hole).
  std::span<const std::uint8_t> from(std::size_t offset) const;

  std::uint8_t at(std::size_t logical_offset) const;

  // Consumes `n` logical bytes at the front — pure cursor arithmetic.
  void pop_front(std::size_t n);

  // Removes `count` logical bytes at `offset`. Cursor arithmetic when the
  // range touches the existing hole (or there is none); otherwise CoW.
  void erase(std::size_t offset, std::size_t count);

  // Gathers the logical bytes into `out` (out.size() must equal size()).
  void copy_to(std::span<std::uint8_t> out) const;

  // Gathers into a fresh mutable Packet (a deep copy, counted).
  Packet materialize(std::size_t headroom = Packet::kDefaultHeadroom) const;

  // How many views (including this one) share the underlying buffer.
  long use_count() const noexcept { return buffer_.use_count(); }

  // The buffer the logical bytes live in. Its identity (with a byte's
  // offset in it) names those bytes for as long as the buffer lives.
  const std::shared_ptr<const PacketBuffer>& buffer() const noexcept {
    return buffer_;
  }

 private:
  void check_range(std::size_t offset, std::size_t count,
                   const char* what) const;

  std::shared_ptr<const PacketBuffer> buffer_;
  std::size_t head_ = 0;      // first valid byte in buffer_
  std::size_t end_ = 0;       // one past the last valid byte
  std::size_t skip_at_ = 0;   // logical offset where the hole begins
  std::size_t skip_len_ = 0;  // buffer bytes hidden by the hole
};

}  // namespace elmo::net
