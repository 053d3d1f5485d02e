#include "net/bitio.h"

#include <algorithm>

namespace elmo::net {

// Both directions move up to one byte per step: the field is cut at byte
// boundaries of the stream, so a 48-port bitmap costs ~7 steps, not 48.

void BitWriter::write(std::uint64_t value, unsigned bits) {
  if (bits > 64) throw std::invalid_argument{"BitWriter: bits > 64"};
  while (bits > 0) {
    const unsigned offset = bit_count_ % 8;
    if (offset == 0) buffer_.push_back(0);
    const unsigned take = std::min(bits, 8 - offset);
    const auto chunk = (value >> (bits - take)) & ((1u << take) - 1);
    buffer_.back() |= static_cast<std::uint8_t>(chunk << (8 - offset - take));
    bit_count_ += take;
    bits -= take;
  }
}

void BitWriter::align_to_byte() { bit_count_ = byte_count() * 8; }

std::vector<std::uint8_t> BitWriter::take() {
  auto out = std::move(buffer_);
  buffer_.clear();
  bit_count_ = 0;
  return out;
}

std::uint64_t BitReader::read(unsigned bits) {
  if (bits > 64) throw std::invalid_argument{"BitReader: bits > 64"};
  if (bits > bits_remaining()) {
    throw std::out_of_range{"BitReader: read past end"};
  }
  std::uint64_t value = 0;
  while (bits > 0) {
    const unsigned offset = position_ % 8;
    const unsigned take = std::min(bits, 8 - offset);
    const unsigned byte = data_[position_ / 8];
    value = (value << take) |
            ((byte >> (8 - offset - take)) & ((1u << take) - 1));
    position_ += take;
    bits -= take;
  }
  return value;
}

void BitReader::skip(std::size_t bits) {
  if (bits > bits_remaining()) {
    throw std::out_of_range{"BitReader: skip past end"};
  }
  position_ += bits;
}

}  // namespace elmo::net
