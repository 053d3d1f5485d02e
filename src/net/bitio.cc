#include "net/bitio.h"

#include <algorithm>

namespace elmo::net {

void BitWriter::write(std::uint64_t value, unsigned bits) {
  if (bits > 64) throw std::invalid_argument{"BitWriter: bits > 64"};
  // A field fits the word at its first byte unless it starts mid-byte and
  // is wider than what that word has left; then a second step writes the
  // at most 7 bits that spill into the next word.
  while (bits > 0) {
    const unsigned offset = bit_count_ % 8;
    const std::size_t at = bit_count_ / 8;
    const unsigned take = std::min(bits, 64 - offset);
    if (buffer_.size() < at + kSlack) {
      buffer_.resize(std::max(at + kSlack, 2 * buffer_.size()));
    }
    auto chunk = value >> (bits - take);
    if (take < 64) chunk &= (std::uint64_t{1} << take) - 1;
    store_be64(buffer_.data() + at,
               load_be64(buffer_.data() + at) | chunk << (64 - offset - take));
    bit_count_ += take;
    bits -= take;
  }
}

std::vector<std::uint8_t> BitWriter::take() {
  buffer_.resize(byte_count());
  auto out = std::move(buffer_);
  buffer_.clear();
  bit_count_ = 0;
  return out;
}

std::uint64_t BitReader::read_bytewise(unsigned bits) noexcept {
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

}  // namespace elmo::net
