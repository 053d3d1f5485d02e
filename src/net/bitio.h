// MSB-first bit-level serialization.
//
// Elmo's p-rule header is specified at bit granularity (flags, variable-width
// switch identifiers, port bitmaps), so header sizes reported by the benches
// must come from an exact bit-packing codec rather than struct sizeof().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace elmo::net {

// Appends fields MSB-first into a byte vector; the final byte is zero-padded.
class BitWriter {
 public:
  // value's low `bits` bits are written, most significant first.
  void write(std::uint64_t value, unsigned bits);
  void write_bool(bool value) { write(value ? 1 : 0, 1); }

  // Pads to a byte boundary with zero bits.
  void align_to_byte();

  // Pre-sizes the buffer for `bytes` bytes of output.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  std::size_t bit_count() const noexcept { return bit_count_; }
  std::size_t byte_count() const noexcept { return (bit_count_ + 7) / 8; }

  // Finishes the stream (pads to a byte) and returns the buffer.
  std::vector<std::uint8_t> take();
  std::span<const std::uint8_t> bytes() const noexcept { return buffer_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t bit_count_ = 0;
};

// Reads fields MSB-first from a byte span.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_{data} {}

  std::uint64_t read(unsigned bits);
  bool read_bool() { return read(1) != 0; }
  // Advances past `bits` bits without decoding them; throws
  // std::out_of_range, as read() does, if fewer remain.
  void skip(std::size_t bits);
  void align_to_byte() noexcept { position_ = (position_ + 7) / 8 * 8; }

  std::size_t bit_position() const noexcept { return position_; }
  std::size_t bits_remaining() const noexcept {
    return data_.size() * 8 - position_;
  }
  // Byte offset of the next unread bit, rounded up.
  std::size_t byte_position() const noexcept { return (position_ + 7) / 8; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t position_ = 0;  // in bits
};

// Mirror image of a 64-bit word: bit i moves to bit 63 - i. Converts
// between PortBitmap words (port 0 in the LSB) and the MSB-first wire order.
constexpr std::uint64_t reverse_bits(std::uint64_t x) noexcept {
  x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
  x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
  x = ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL) | ((x & 0x0f0f0f0f0f0f0f0fULL) << 4);
  return __builtin_bswap64(x);
}

// Number of bits needed to represent values in [0, n); at least 1.
constexpr unsigned bits_for(std::uint64_t n) noexcept {
  unsigned bits = 1;
  while ((1ULL << bits) < n) ++bits;
  return bits;
}

}  // namespace elmo::net
