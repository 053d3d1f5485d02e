#include "net/packet.h"

#include <algorithm>
#include <atomic>

namespace elmo::net {

namespace {
std::atomic<std::uint64_t> g_copy_count{0};
std::atomic<std::uint64_t> g_copy_bytes{0};
}  // namespace

CopyStats copy_stats() noexcept {
  return CopyStats{g_copy_count.load(std::memory_order_relaxed),
                   g_copy_bytes.load(std::memory_order_relaxed)};
}

void reset_copy_stats() noexcept {
  g_copy_count.store(0, std::memory_order_relaxed);
  g_copy_bytes.store(0, std::memory_order_relaxed);
}

void count_copy(std::size_t bytes) noexcept {
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
  g_copy_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void Packet::push_front(std::span<const std::uint8_t> header) {
  const auto front = prepend(header.size());
  std::copy(header.begin(), header.end(), front.begin());
}

std::span<std::uint8_t> Packet::prepend(std::size_t count) {
  if (count > head_) {
    const std::size_t extra = std::max(count - head_, kDefaultHeadroom);
    buffer_.insert(buffer_.begin(), extra, 0);
    head_ += extra;
  }
  head_ -= count;
  return {buffer_.data() + head_, count};
}

void Packet::pop_front(std::size_t count) {
  if (count > size()) {
    throw std::out_of_range{"Packet::pop_front beyond packet size"};
  }
  head_ += count;
}

void Packet::erase(std::size_t offset, std::size_t count) {
  // Checked as two comparisons so a huge `count` cannot overflow
  // `offset + count` and slip past the bound.
  if (offset > size() || count > size() - offset) {
    throw std::out_of_range{"Packet::erase beyond packet size"};
  }
  const auto first = buffer_.begin() + static_cast<std::ptrdiff_t>(head_ + offset);
  buffer_.erase(first, first + static_cast<std::ptrdiff_t>(count));
}

std::span<const std::uint8_t> Packet::peek(std::size_t count) const {
  if (count > size()) {
    throw std::out_of_range{"Packet::peek beyond packet size"};
  }
  return {buffer_.data() + head_, count};
}

}  // namespace elmo::net
