// Port bitmaps: the unit of forwarding state in Elmo.
//
// Every p-rule and s-rule carries a bitmap of switch output ports. The
// clustering algorithm (Algorithm 1) reduces to popcount / OR / Hamming
// distance over these, so the representation is word-packed and those
// operations are branch-light word loops over 64-bit lanes.
//
// Storage is a two-word small-buffer: up to 128 ports (every switch role in
// every topology this repo instantiates — the widest is a 48-port leaf plus
// uplinks) live inline with no heap allocation, so the per-packet bitmaps the
// data-plane parser builds are allocation-free; wider domains fall back to a
// heap block transparently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace elmo::net {

class PortBitmap {
 public:
  PortBitmap() = default;
  explicit PortBitmap(std::size_t num_ports)
      : num_ports_{num_ports}, num_words_{(num_ports + 63) / 64} {
    if (num_words_ > kInlineWords) {
      heap_ = std::make_unique<std::uint64_t[]>(num_words_);
      for (std::size_t i = 0; i < num_words_; ++i) heap_[i] = 0;
    }
  }

  PortBitmap(const PortBitmap& other)
      : num_ports_{other.num_ports_}, num_words_{other.num_words_} {
    if (num_words_ > kInlineWords) {
      heap_ = std::make_unique<std::uint64_t[]>(num_words_);
    }
    const auto* src = other.data();
    auto* dst = data();
    for (std::size_t i = 0; i < num_words_; ++i) dst[i] = src[i];
  }
  PortBitmap& operator=(const PortBitmap& other) {
    if (this == &other) return *this;
    if (other.num_words_ > kInlineWords) {
      if (num_words_ != other.num_words_ || heap_ == nullptr) {
        heap_ = std::make_unique<std::uint64_t[]>(other.num_words_);
      }
    } else {
      heap_.reset();
    }
    num_ports_ = other.num_ports_;
    num_words_ = other.num_words_;
    const auto* src = other.data();
    auto* dst = data();
    for (std::size_t i = 0; i < num_words_; ++i) dst[i] = src[i];
    return *this;
  }
  PortBitmap(PortBitmap&& other) noexcept
      : num_ports_{other.num_ports_},
        num_words_{other.num_words_},
        heap_{std::move(other.heap_)} {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    other.num_ports_ = 0;
    other.num_words_ = 0;
  }
  PortBitmap& operator=(PortBitmap&& other) noexcept {
    if (this == &other) return *this;
    num_ports_ = other.num_ports_;
    num_words_ = other.num_words_;
    heap_ = std::move(other.heap_);
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    other.num_ports_ = 0;
    other.num_words_ = 0;
    return *this;
  }

  std::size_t size() const noexcept { return num_ports_; }
  bool empty_domain() const noexcept { return num_ports_ == 0; }

  void set(std::size_t port, bool value = true);
  bool test(std::size_t port) const;

  std::size_t popcount() const noexcept;
  bool any() const noexcept;
  bool none() const noexcept { return !any(); }

  PortBitmap& operator|=(const PortBitmap& other);
  PortBitmap& operator&=(const PortBitmap& other);
  friend PortBitmap operator|(PortBitmap lhs, const PortBitmap& rhs) {
    lhs |= rhs;
    return lhs;
  }
  friend PortBitmap operator&(PortBitmap lhs, const PortBitmap& rhs) {
    lhs &= rhs;
    return lhs;
  }

  bool operator==(const PortBitmap& other) const noexcept {
    if (num_ports_ != other.num_ports_) return false;
    const auto* a = data();
    const auto* b = other.data();
    for (std::size_t i = 0; i < num_words_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  // |this XOR other|: the redundancy metric of Algorithm 1.
  std::size_t hamming_distance(const PortBitmap& other) const;

  // Number of bits set in `other` but not in this (extra transmissions a
  // shared output bitmap causes for a switch whose input bitmap is `this`).
  std::size_t extra_bits_in(const PortBitmap& other) const;

  bool is_subset_of(const PortBitmap& other) const;

  void clear() noexcept {
    auto* w = data();
    for (std::size_t i = 0; i < num_words_; ++i) w[i] = 0;
  }

  // Invokes fn(port) for every set port in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    const auto* words = data();
    for (std::size_t wi = 0; wi < num_words_; ++wi) {
      std::uint64_t w = words[wi];
      while (w != 0) {
        const auto bit =
            static_cast<std::size_t>(__builtin_ctzll(w));
        fn(wi * 64 + bit);
        w &= w - 1;
      }
    }
  }

  std::vector<std::size_t> set_ports() const;

  // "10110..." — MSB is port 0, matching the paper's figures.
  std::string to_string() const;

  std::uint64_t hash() const noexcept;

  // Raw word access for serialization (word 0 holds ports 0..63).
  std::span<const std::uint64_t> words() const noexcept {
    return {data(), num_words_};
  }
  // Overwrites word `index`; bits past the last port are dropped.
  void set_word(std::size_t index, std::uint64_t word) {
    if (index >= num_words_) {
      throw std::out_of_range{"PortBitmap: word index out of range"};
    }
    const std::size_t tail = num_ports_ - index * 64;
    if (tail < 64) word &= (1ULL << tail) - 1;
    data()[index] = word;
  }

 private:
  static constexpr std::size_t kInlineWords = 2;

  std::uint64_t* data() noexcept {
    return heap_ != nullptr ? heap_.get() : inline_;
  }
  const std::uint64_t* data() const noexcept {
    return heap_ != nullptr ? heap_.get() : inline_;
  }

  void check_port(std::size_t port) const;
  void check_domain(const PortBitmap& other) const;

  std::size_t num_ports_ = 0;
  std::size_t num_words_ = 0;
  std::uint64_t inline_[kInlineWords] = {0, 0};
  std::unique_ptr<std::uint64_t[]> heap_;  // engaged iff num_words_ > 2
};

struct PortBitmapHash {
  std::size_t operator()(const PortBitmap& b) const noexcept {
    return static_cast<std::size_t>(b.hash());
  }
};

}  // namespace elmo::net
