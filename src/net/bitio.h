// MSB-first bit-level serialization.
//
// Elmo's p-rule header is specified at bit granularity (flags, variable-width
// switch identifiers, port bitmaps), so header sizes reported by the benches
// must come from an exact bit-packing codec rather than struct sizeof().
//
// Both directions move up to 64 bits per step through one unaligned
// big-endian word: a 48-port bitmap is one load or one read-modify-write,
// not a loop over its bytes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace elmo::net {

// The 8 bytes at `p` as a big-endian word (no alignment needed).
inline std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  return word;
}

// Stores `word` big-endian into the 8 bytes at `p`.
inline void store_be64(std::uint8_t* p, std::uint64_t word) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  std::memcpy(p, &word, sizeof word);
}

// Appends fields MSB-first into a byte vector; the final byte is zero-padded.
class BitWriter {
 public:
  // value's low `bits` bits are written, most significant first.
  void write(std::uint64_t value, unsigned bits);
  void write_bool(bool value) { write(value ? 1 : 0, 1); }

  // Pads to a byte boundary with zero bits.
  void align_to_byte() noexcept { bit_count_ = byte_count() * 8; }

  // Pre-sizes the buffer for `bytes` bytes of output in one allocation, so
  // writing them never grows it again.
  void reserve(std::size_t bytes) {
    if (buffer_.size() < bytes + kSlack) buffer_.resize(bytes + kSlack);
  }

  std::size_t bit_count() const noexcept { return bit_count_; }
  std::size_t byte_count() const noexcept { return (bit_count_ + 7) / 8; }

  // Finishes the stream (pads to a byte) and returns the buffer.
  std::vector<std::uint8_t> take();
  std::span<const std::uint8_t> bytes() const noexcept {
    return {buffer_.data(), byte_count()};
  }

 private:
  // The buffer runs this many zero bytes past byte_count(), so every step
  // can read-modify-write a whole word.
  static constexpr std::size_t kSlack = 8;

  std::vector<std::uint8_t> buffer_;
  std::size_t bit_count_ = 0;
};

// Reads fields MSB-first from a byte span.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_{data} {}

  // Throws std::invalid_argument for more than 64 bits and
  // std::out_of_range for more bits than remain.
  std::uint64_t read(unsigned bits) {
    if (bits > 64) throw std::invalid_argument{"BitReader: bits > 64"};
    if (bits > bits_remaining()) {
      throw std::out_of_range{"BitReader: read past end"};
    }
    if (bits == 0) return 0;
    const unsigned offset = position_ % 8;
    const std::size_t at = position_ / 8;
    if (offset + bits <= 64 && at + 8 <= data_.size()) {
      position_ += bits;
      return (load_be64(data_.data() + at) << offset) >> (64 - bits);
    }
    return read_bytewise(bits);
  }
  bool read_bool() { return read(1) != 0; }
  // Advances past `bits` bits without decoding them; throws
  // std::out_of_range, as read() does, if fewer remain.
  void skip(std::size_t bits) {
    if (bits > bits_remaining()) {
      throw std::out_of_range{"BitReader: skip past end"};
    }
    position_ += bits;
  }
  void align_to_byte() noexcept { position_ = (position_ + 7) / 8 * 8; }

  std::size_t bit_position() const noexcept { return position_; }
  std::size_t bits_remaining() const noexcept {
    return data_.size() * 8 - position_;
  }
  // Byte offset of the next unread bit, rounded up.
  std::size_t byte_position() const noexcept { return (position_ + 7) / 8; }

 private:
  // read() for a field near the end of the data or straddling a 64-bit
  // window: up to one byte per step. `bits` is already checked.
  std::uint64_t read_bytewise(unsigned bits) noexcept;

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
