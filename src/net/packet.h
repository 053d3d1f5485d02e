// Packet buffer used by the software data plane.
//
// A Packet is a contiguous, uniquely-owned byte buffer with cheap header
// prepend/consume at the front. The buffer keeps headroom at the front,
// mirroring how real packet buffers (skb, rte_mbuf) avoid memmove on
// encap/decap. Packets are the *builder* type: the hypervisor assembles the
// outer header + Elmo template into one, then the forwarding pipeline adopts
// the bytes into a refcounted immutable PacketBuffer and hands out cheap
// PacketViews (see packet_view.h) — a Packet is never deep-copied on the
// forwarding path.
//
// Deep copies of packet bytes are globally accounted (copy_stats()) so the
// benches can report bytes-copied-per-send; see bench/packet_walk.cc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace elmo::net {

// Global accounting of deep packet-byte copies (copy construction/assignment
// of Packet, PacketView materialization). Counted with relaxed atomics: the
// counters are process-global, and fabrics walked on different threads
// (DESIGN.md §12) share them; benches reset the counters around a measured
// section and read a snapshot.
struct CopyStats {
  std::uint64_t copies = 0;
  std::uint64_t bytes = 0;
};

CopyStats copy_stats() noexcept;
void reset_copy_stats() noexcept;
void count_copy(std::size_t bytes) noexcept;

class Packet {
 public:
  static constexpr std::size_t kDefaultHeadroom = 512;

  Packet() : Packet(std::span<const std::uint8_t>{}) {}

  explicit Packet(std::span<const std::uint8_t> payload,
                  std::size_t headroom = kDefaultHeadroom)
      : buffer_(headroom + payload.size()), head_{headroom} {
    std::copy(payload.begin(), payload.end(), buffer_.begin() + headroom);
  }

  Packet(const Packet& other) : buffer_{other.buffer_}, head_{other.head_} {
    count_copy(size());
  }
  Packet& operator=(const Packet& other) {
    if (this != &other) {
      buffer_ = other.buffer_;
      head_ = other.head_;
      count_copy(size());
    }
    return *this;
  }
  Packet(Packet&&) noexcept = default;
  Packet& operator=(Packet&&) noexcept = default;

  // A packet of `size` zero bytes (payload placeholder for simulations).
  static Packet of_size(std::size_t size) {
    Packet p;
    p.buffer_.assign(kDefaultHeadroom + size, 0);
    p.head_ = kDefaultHeadroom;
    return p;
  }

  // A packet of `size` zero bytes with explicit headroom; the caller fills
  // the contents via mutable_bytes() (PacketView::materialize gather target).
  static Packet with_size(std::size_t size, std::size_t headroom) {
    Packet p;
    p.buffer_.assign(headroom + size, 0);
    p.head_ = headroom;
    return p;
  }

  std::size_t size() const noexcept { return buffer_.size() - head_; }

  std::span<const std::uint8_t> bytes() const noexcept {
    return {buffer_.data() + head_, size()};
  }
  std::span<std::uint8_t> mutable_bytes() noexcept {
    return {buffer_.data() + head_, size()};
  }

  // Prepends a header; grows headroom if exhausted.
  void push_front(std::span<const std::uint8_t> header);
  // Opens `count` bytes at the front, growing headroom if exhausted, and
  // returns them for the caller to fill in place (their contents are
  // unspecified until then).
  std::span<std::uint8_t> prepend(std::size_t count);

  // Removes `count` bytes from the front (header consumed by a hop).
  void pop_front(std::size_t count);

  // Removes `count` bytes starting at `offset` (a deparser dropping
  // invalidated headers that sit behind the outer encapsulation).
  void erase(std::size_t offset, std::size_t count);

  // Reads without consuming.
  std::span<const std::uint8_t> peek(std::size_t count) const;

  // Releases the underlying storage (full buffer plus the offset of the
  // first live byte) so PacketView can adopt it without a copy. The packet
  // is left empty.
  struct ReleasedBuffer {
    std::vector<std::uint8_t> storage;
    std::size_t head = 0;
  };
  ReleasedBuffer release() && {
    ReleasedBuffer out{std::move(buffer_), head_};
    buffer_.clear();
    head_ = 0;
    return out;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
};

}  // namespace elmo::net
