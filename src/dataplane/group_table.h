// Exact-match group table shared by every switch model (DESIGN.md §4).
//
// Each element an Elmo packet crosses does one lookup on the outer group
// address: the hypervisor's flow table on encap and decap, and a leaf's or
// spine's s-rule table when no p-rule matched. A simulated fabric holds
// tens of thousands of these tables, so a lookup is almost always a cold
// one; a node-based hash map pays a miss for the bucket, one for the node
// before the hit and one for the hit itself. GroupTable keeps two arrays:
//
//   * a power-of-two probe array of 8-byte (key, entry index) slots —
//     linear probing from a multiplicative hash, at most 7/8 full, erased by
//     backward shift (no tombstones). A slot is empty when its index is
//     kEmptyIndex, so every uint32_t key, 0 and 0xFFFFFFFF included, is a
//     valid key;
//   * the dense entries, std::pair<key, value>, erased by moving the last
//     entry into the hole.
//
// A hit is then one probe-array line plus one entry line. Iteration walks the
// dense entries; its order is unspecified (digest builders must sort).
//
// Invalidation rule: a pointer returned by find() (and any reference or
// iterator into the entries) is valid until the next insert_or_assign() or
// erase() on the same table, whatever key that call touches: an insert may
// reallocate the entries, and an erase moves the last entry into the hole.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace elmo::dp {

template <typename V>
class GroupTable {
 public:
  using Entry = std::pair<std::uint32_t, V>;
  using const_iterator = typename std::vector<Entry>::const_iterator;

  V* find(std::uint32_t key) {
    const std::uint32_t index = index_of(key);
    return index == kEmptyIndex ? nullptr : &entries_[index].second;
  }
  const V* find(std::uint32_t key) const {
    const std::uint32_t index = index_of(key);
    return index == kEmptyIndex ? nullptr : &entries_[index].second;
  }
  bool contains(std::uint32_t key) const {
    return index_of(key) != kEmptyIndex;
  }

  // Returns true when `key` was new, false when its value was replaced.
  bool insert_or_assign(std::uint32_t key, V value) {
    if ((entries_.size() + 1) * 8 > slots_.size() * 7) grow();
    std::size_t i = home(key);
    for (; slots_[i].index != kEmptyIndex; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        entries_[slots_[i].index].second = std::move(value);
        return false;
      }
    }
    slots_[i] = Slot{key, static_cast<std::uint32_t>(entries_.size())};
    entries_.emplace_back(key, std::move(value));
    return true;
  }

  // Returns true when `key` was present.
  bool erase(std::uint32_t key) {
    if (entries_.empty()) return false;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].index == kEmptyIndex) return false;
      if (slots_[hole].key == key) break;
    }
    const std::uint32_t index = slots_[hole].index;
    // Backward shift: pull each later slot of the run into the hole unless
    // that would move it in front of its home slot.
    for (std::size_t next = (hole + 1) & mask_;
         slots_[next].index != kEmptyIndex; next = (next + 1) & mask_) {
      const std::size_t next_home = home(slots_[next].key);
      if (((next - next_home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole].index = kEmptyIndex;
    // Keep the entries dense: the last one moves into the freed index.
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (index != last) {
      entries_[index] = std::move(entries_[last]);
      slot_of(entries_[index].first).index = index;
    }
    entries_.pop_back();
    return true;
  }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }

  // Probe-array geometry, exposed so tests can build colliding probe runs:
  // the array's length (0 before the first insert) and the slot where a
  // probe for `key` starts in an array of `slots` (a power of two >= 2).
  std::size_t slot_count() const noexcept { return slots_.size(); }
  static std::size_t home_slot(std::uint32_t key, std::size_t slots) noexcept {
    return fibonacci(key, shift_for(slots));
  }

 private:
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t index = kEmptyIndex;
  };
  static constexpr std::uint32_t kEmptyIndex = 0xFFFF'FFFFu;
  static constexpr std::size_t kMinSlots = 8;

  // Fibonacci hashing: the top log2(slots) bits of key * 2^64/phi.
  static std::size_t fibonacci(std::uint32_t key, unsigned shift) noexcept {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E37'79B9'7F4A'7C15ull) >> shift);
  }
  static unsigned shift_for(std::size_t slots) noexcept {
    unsigned shift = 64;
    for (; slots > 1; slots >>= 1) --shift;
    return shift;
  }
  std::size_t home(std::uint32_t key) const noexcept {
    return fibonacci(key, shift_);
  }

  std::uint32_t index_of(std::uint32_t key) const noexcept {
    if (entries_.empty()) return kEmptyIndex;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot s = slots_[i];
      if (s.index == kEmptyIndex || s.key == key) return s.index;
    }
  }

  // The slot holding `key`, which must be present.
  Slot& slot_of(std::uint32_t key) noexcept {
    std::size_t i = home(key);
    while (slots_[i].key != key || slots_[i].index == kEmptyIndex) {
      i = (i + 1) & mask_;
    }
    return slots_[i];
  }

  void grow() {
    const std::size_t capacity =
        slots_.empty() ? kMinSlots : slots_.size() * 2;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = shift_for(capacity);
    for (std::uint32_t index = 0; index < entries_.size(); ++index) {
      std::size_t i = home(entries_[index].first);
      while (slots_[i].index != kEmptyIndex) i = (i + 1) & mask_;
      slots_[i] = Slot{entries_[index].first, index};
    }
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace elmo::dp
