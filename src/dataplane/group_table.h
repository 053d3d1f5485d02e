// Exact-match group table shared by every switch model (DESIGN.md §4).
//
// Each element an Elmo packet crosses does one lookup on the outer group
// address: the hypervisor's flow table on encap and decap, and a leaf's or
// spine's s-rule table when no p-rule matched. A simulated fabric holds
// tens of thousands of these tables, so a lookup is almost always a cold
// one; a node-based hash map pays a miss for the bucket, one for the node
// before the hit and one for the hit itself. GroupTable keeps two arrays:
//
//   * a power-of-two probe array of 16-byte (key, entry index, summary)
//     slots — linear probing from a multiplicative hash, at most 7/8 full,
//     erased by backward shift (no tombstones). A slot is empty when its
//     index is kEmptyIndex, so every uint32_t key, 0 and 0xFFFFFFFF
//     included, is a valid key;
//   * the dense entries, std::pair<key, value>, erased by moving the last
//     entry into the hole.
//
// A hit is then one probe-array line plus one entry line, and a caller that
// knows a key several steps ahead can start the first of them early with
// prefetch(key) (the walk's prefetch pipeline, DESIGN.md §4). The summary
// is a 64-bit digest of the value, `Summary{}(value)`, recomputed on every
// write and carried by every slot move, so a caller whose common case fits
// in 64 bits reads it from the probe line alone with find_summary() and
// never touches the entry (the hypervisor's decap path, DESIGN.md §4).
// Values are therefore read-only once stored: find() returns a const
// pointer, and the only way to change a value is insert_or_assign().
// Iteration walks the dense entries; its order is unspecified (digests over
// it must be order-free).
//
// Invalidation rule: a pointer returned by find() (and any reference or
// iterator into the entries) is valid until the next insert_or_assign() or
// erase() on the same table, whatever key that call touches: an insert may
// reallocate the entries, and an erase moves the last entry into the hole.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/prefetch.h"

namespace elmo::dp {

// The summary of a table whose callers never read one.
struct NoSummary {
  template <typename V>
  constexpr std::uint64_t operator()(const V&) const noexcept {
    return 0;
  }
};

template <typename V, typename Summary = NoSummary>
class GroupTable {
 public:
  using Entry = std::pair<std::uint32_t, V>;
  using const_iterator = typename std::vector<Entry>::const_iterator;

  const V* find(std::uint32_t key) const {
    const Slot* slot = slot_for(key);
    return slot == nullptr ? nullptr : &entries_[slot->index].second;
  }
  bool contains(std::uint32_t key) const { return slot_for(key) != nullptr; }
  // `Summary{}(*find(key))` from the probe array alone, or nullopt when
  // `key` is absent; the entries are not touched.
  std::optional<std::uint64_t> find_summary(std::uint32_t key) const {
    const Slot* slot = slot_for(key);
    if (slot == nullptr) return std::nullopt;
    return slot->summary;
  }
  // Starts loading the probe line where a lookup of `key` begins, so a
  // find() issued a few steps later finds it warm. Reads only the table's
  // header; changes nothing, and does nothing on an empty table.
  void prefetch(std::uint32_t key) const noexcept {
    if (entries_.empty()) return;
    util::prefetch(&slots_[home(key)]);
  }

  // Returns true when `key` was new, false when its value was replaced.
  bool insert_or_assign(std::uint32_t key, V value) {
    const std::uint64_t summary = Summary{}(value);
    if ((entries_.size() + 1) * 8 > slots_.size() * 7) grow();
    std::size_t i = home(key);
    for (; slots_[i].index != kEmptyIndex; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        entries_[slots_[i].index].second = std::move(value);
        slots_[i].summary = summary;
        return false;
      }
    }
    slots_[i] =
        Slot{key, static_cast<std::uint32_t>(entries_.size()), summary};
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
    std::uint64_t summary = 0;
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

  // The slot holding `key`, or nullptr when it is absent.
  const Slot* slot_for(std::uint32_t key) const noexcept {
    if (entries_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.index == kEmptyIndex) return nullptr;
      if (s.key == key) return &s;
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

  // Rehashes the occupied slots, summaries included, into an array twice
  // as long.
  void grow() {
    const std::size_t capacity =
        slots_.empty() ? kMinSlots : slots_.size() * 2;
    std::vector<Slot> old(capacity, Slot{});
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = shift_for(capacity);
    for (const Slot& s : old) {
      if (s.index == kEmptyIndex) continue;
      std::size_t i = home(s.key);
      while (slots_[i].index != kEmptyIndex) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace elmo::dp
