#include "dataplane/group_table.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace elmo::dp {
namespace {

// A test summary that differs for nearly every value, so a slot that kept a
// stale summary after a replace, grow or backward shift is caught.
struct MixSummary {
  std::uint64_t operator()(std::uint64_t value) const noexcept {
    return (value * 0x9E37'79B9'7F4A'7C15ull) ^ (value >> 29);
  }
};

using Table = GroupTable<std::uint64_t, MixSummary>;

// Every live key of `table` is found with its value and that value's
// summary, and iteration visits exactly the keys of `ref`, each once.
void expect_same(const Table& table,
                 const std::unordered_map<std::uint32_t, std::uint64_t>& ref) {
  ASSERT_EQ(table.size(), ref.size());
  EXPECT_EQ(table.empty(), ref.empty());
  std::map<std::uint32_t, std::uint64_t> seen;
  for (const auto& [key, value] : table) {
    EXPECT_TRUE(seen.emplace(key, value).second) << "key " << key << " twice";
  }
  ASSERT_EQ(seen.size(), ref.size());
  for (const auto& [key, value] : ref) {
    const auto* found = table.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
    EXPECT_EQ(table.find_summary(key), MixSummary{}(*found)) << "key " << key;
    EXPECT_TRUE(table.contains(key));
    EXPECT_EQ(seen.at(key), value);
  }
}

// `count` distinct keys whose probes all start at `home` in an array of
// `slots` slots, searched upward from `from`.
std::vector<std::uint32_t> keys_homed_at(std::size_t home, std::size_t slots,
                                         std::size_t count,
                                         std::uint32_t from = 1) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = from; keys.size() < count; ++k) {
    if (Table::home_slot(k, slots) == home) keys.push_back(k);
  }
  return keys;
}

TEST(GroupTable, EmptyTableFindsNothing) {
  Table t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.slot_count(), 0u);
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find_summary(0), std::nullopt);
  EXPECT_FALSE(t.contains(0xFFFF'FFFFu));
  EXPECT_FALSE(t.erase(7));
  EXPECT_EQ(t.begin(), t.end());
}

// prefetch() on a default-constructed table (no probe array yet) neither
// faults nor allocates.
TEST(GroupTable, EmptyTablePrefetchesNothing) {
  Table t;
  t.prefetch(0);
  t.prefetch(0xFFFF'FFFFu);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.slot_count(), 0u);
  EXPECT_EQ(t.find(0), nullptr);
}

TEST(GroupTable, InsertAssignAndEraseReportWhatHappened) {
  Table t;
  EXPECT_TRUE(t.insert_or_assign(5, 50));
  EXPECT_FALSE(t.insert_or_assign(5, 51));
  EXPECT_EQ(*t.find(5), 51u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.erase(5));
  EXPECT_FALSE(t.erase(5));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(5), nullptr);
}

TEST(GroupTable, ExtremeKeysAreOrdinaryKeys) {
  // The empty marker lives in the entry index, not the key: 0 and
  // 0xFFFFFFFF are valid keys, alone and together.
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  Table t;
  EXPECT_EQ(t.find(0), nullptr);
  t.insert_or_assign(0, 100);
  EXPECT_EQ(t.find(kMax), nullptr);
  t.insert_or_assign(kMax, 200);
  ASSERT_NE(t.find(0), nullptr);
  ASSERT_NE(t.find(kMax), nullptr);
  EXPECT_EQ(*t.find(0), 100u);
  EXPECT_EQ(*t.find(kMax), 200u);
  EXPECT_TRUE(t.erase(0));
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(*t.find(kMax), 200u);
  EXPECT_TRUE(t.erase(kMax));
  EXPECT_TRUE(t.empty());
}

// After one operation: every key in [0, key_range) plus 0xFFFFFFFF has the
// summary of its live value, or misses when it is absent.
void expect_summaries(const Table& table,
                      const std::unordered_map<std::uint32_t, std::uint64_t>& ref,
                      std::uint32_t key_range, int op) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const auto check = [&](std::uint32_t key) {
    const auto summary = table.find_summary(key);
    const auto it = ref.find(key);
    if (it == ref.end()) {
      ASSERT_EQ(summary, std::nullopt) << "op " << op << " key " << key;
    } else {
      ASSERT_EQ(summary, MixSummary{}(it->second))
          << "op " << op << " key " << key;
    }
  };
  for (std::uint32_t key = 0; key < key_range; ++key) check(key);
  check(kMax);
}

// Prefetches a random present key (when there is one), a random absent key
// and the extreme keys. A hint must not fault on any table state and must
// change nothing, which the checks that follow it confirm.
void prefetch_some(const Table& t, util::Rng& rng, std::uint32_t key_range) {
  if (!t.empty()) {
    t.prefetch(std::next(t.begin(), static_cast<std::ptrdiff_t>(
                                        rng.next_below(t.size())))
                   ->first);
  }
  t.prefetch(key_range + static_cast<std::uint32_t>(rng.next_below(1000)));
  t.prefetch(0);
  t.prefetch(std::numeric_limits<std::uint32_t>::max());
}

// Random inserts, replaces and erases over keys [0, key_range) plus the
// extreme keys, checked against std::unordered_map after every operation.
// A new table starts at 8 slots, so each run also crosses every growth step
// up to its working size. Every operation (each grow and erase included) is
// followed by prefetches, the empty table's first one too; their keys come
// from a stream of their own, so the operations are the same without them.
void differential_run(std::uint64_t seed, std::uint32_t key_range, int ops,
                      std::uint64_t insert_tenths) {
  util::Rng rng{seed};
  auto prefetch_rng = util::Rng::stream(seed, 1);
  Table t;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  prefetch_some(t, prefetch_rng, key_range);
  for (int op = 0; op < ops; ++op) {
    const auto pick = rng.next_below(100);
    std::uint32_t key = static_cast<std::uint32_t>(rng.next_below(key_range));
    if (pick < 3) key = 0;
    if (pick >= 97) key = kMax;
    const auto kind = rng.next_below(10);
    if (kind < insert_tenths) {
      const std::uint64_t value = rng();
      const bool inserted = t.insert_or_assign(key, value);
      EXPECT_EQ(inserted, !ref.contains(key));
      ref.insert_or_assign(key, value);
    } else {
      EXPECT_EQ(t.erase(key), ref.erase(key) == 1);
    }
    prefetch_some(t, prefetch_rng, key_range);
    const auto* found = t.find(key);
    ASSERT_EQ(found != nullptr, ref.contains(key)) << "op " << op;
    if (found != nullptr) {
      ASSERT_EQ(*found, ref.at(key));
    }
    expect_summaries(t, ref, key_range, op);
    if (::testing::Test::HasFatalFailure()) return;
    if (op % 4096 == 0) expect_same(t, ref);
  }
  expect_same(t, ref);
}

TEST(GroupTable, RandomizedDifferentialAgainstUnorderedMap) {
  // Keys from a small range keep the table dense and its probe runs long
  // (and wrapping past the array's end); the extreme keys ride along.
  differential_run(19, 512, 120'000, 6);
  // Insert-heavy over a wider range: the table keeps growing while erases
  // shift runs back, so summaries must survive both moves.
  differential_run(23, 2048, 8'000, 8);
}

TEST(GroupTable, EraseInTheMiddleOfAProbeRun) {
  // In a 16-slot array, one run fills slots 3..8: three keys homed at 3,
  // a key sitting in its own home slot 6, a fourth key homed at 3 (pushed
  // to 7) and a key homed at 5 (pushed to 8). Erasing inside the run must
  // pull the displaced keys back and leave the at-home key where it is.
  constexpr std::size_t kSlots = 16;
  const auto run = keys_homed_at(3, kSlots, 4);
  const auto at_home = keys_homed_at(6, kSlots, 1)[0];
  const auto later = keys_homed_at(5, kSlots, 1)[0];
  // Seven keys homed outside 3..9 fill the first 8-slot array; the next
  // insert grows it to 16 slots, so the run is laid out in insert order.
  std::vector<std::uint32_t> order;
  for (const std::size_t home : {10u, 11u, 12u, 13u, 14u, 0u, 1u}) {
    order.push_back(keys_homed_at(home, kSlots, 1)[0]);
  }
  for (const auto k : {run[0], run[1], run[2], at_home, run[3], later}) {
    order.push_back(k);
  }
  Table t;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  for (const auto k : order) {
    t.insert_or_assign(k, k);
    ref[k] = k;
  }
  ASSERT_EQ(t.slot_count(), kSlots);
  expect_same(t, ref);

  for (const auto victim : {run[1], run[0], later, run[3], at_home}) {
    ASSERT_TRUE(t.erase(victim));
    ref.erase(victim);
    expect_same(t, ref);
  }
}

TEST(GroupTable, EraseAcrossTheWrapAround) {
  // A run homed at the last slot wraps to the front of the array (slots
  // 15, 0, 1, 2); two keys homed at slot 0 sit behind it (3, 4), then a key
  // in its own home slot 5. Erasing inside the wrapped run must shift
  // entries back across the array's end and stop at the at-home key.
  constexpr std::size_t kSlots = 16;
  const auto wrapped = keys_homed_at(kSlots - 1, kSlots, 4);
  const auto front = keys_homed_at(0, kSlots, 2);
  const auto at_home = keys_homed_at(5, kSlots, 1)[0];
  std::vector<std::uint32_t> filler;
  for (const std::size_t home : {6u, 7u, 8u, 9u, 10u, 11u}) {
    filler.push_back(keys_homed_at(home, kSlots, 1)[0]);
  }
  for (std::size_t victim = 0; victim < wrapped.size() + front.size();
       ++victim) {
    Table t;
    std::unordered_map<std::uint32_t, std::uint64_t> ref;
    for (const auto k : filler) {
      t.insert_or_assign(k, k);
      ref[k] = k;
    }
    for (const auto k : wrapped) {
      t.insert_or_assign(k, k + 1);
      ref[k] = k + 1;
    }
    for (const auto k : front) {
      t.insert_or_assign(k, k + 2);
      ref[k] = k + 2;
    }
    t.insert_or_assign(at_home, 5);
    ref[at_home] = 5;
    ASSERT_EQ(t.slot_count(), kSlots);
    const auto key = victim < wrapped.size()
                         ? wrapped[victim]
                         : front[victim - wrapped.size()];
    ASSERT_TRUE(t.erase(key));
    ref.erase(key);
    expect_same(t, ref);
    // The hole left behind is reusable.
    t.insert_or_assign(key, 7);
    ref[key] = 7;
    expect_same(t, ref);
  }
}

TEST(GroupTable, GrowsAcrossSeveralResizes) {
  Table t;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  std::size_t resizes = 0;
  std::size_t slots = t.slot_count();
  for (std::uint32_t i = 0; i < 5000; ++i) {
    // Group-address-like keys: a fixed prefix over a counter.
    const std::uint32_t key = 0xE000'0000u | (i * 3);
    t.insert_or_assign(key, i);
    ref[key] = i;
    if (t.slot_count() != slots) {
      ++resizes;
      slots = t.slot_count();
      EXPECT_EQ(slots & (slots - 1), 0u) << "not a power of two";
      expect_same(t, ref);
    }
    // The load never exceeds 7/8.
    ASSERT_LE(t.size() * 8, t.slot_count() * 7);
  }
  EXPECT_GE(resizes, 5u);
  expect_same(t, ref);
}

TEST(GroupTable, IterationVisitsEachLiveKeyOnce) {
  Table t;
  for (std::uint32_t k = 0; k < 300; ++k) t.insert_or_assign(k * 7, k);
  for (std::uint32_t k = 0; k < 300; k += 3) t.erase(k * 7);
  std::map<std::uint32_t, int> visits;
  for (const auto& [key, value] : t) {
    ++visits[key];
    EXPECT_EQ(key, value * 7);
  }
  EXPECT_EQ(visits.size(), 200u);
  for (const auto& [key, n] : visits) {
    EXPECT_EQ(n, 1) << "key " << key;
    EXPECT_NE((key / 7) % 3, 0u);
  }
}

TEST(GroupTable, FindPointerIsValidUntilTheNextInsertOrErase) {
  Table t;
  for (std::uint32_t k = 1; k <= 6; ++k) t.insert_or_assign(k, k * 10);
  const auto* p = t.find(2);
  ASSERT_NE(p, nullptr);
  // Lookups and iteration leave the pointer alone.
  for (std::uint32_t k = 0; k <= 8; ++k) (void)t.find(k);
  for (const auto& entry : t) (void)entry;
  EXPECT_TRUE(t.contains(6));
  EXPECT_EQ(t.find(2), p);
  EXPECT_EQ(*p, 20u);

  // An erase moves the last entry into the erased one's place, so an older
  // pointer to the erased key now addresses a different key's value: the
  // reason pointers die at the next erase.
  const auto* erased = t.find(3);
  const auto last_key = (t.end() - 1)->first;
  ASSERT_NE(last_key, 3u);
  ASSERT_TRUE(t.erase(3));
  EXPECT_EQ(t.find(last_key), erased);
  EXPECT_EQ(*t.find(last_key), last_key * 10);
}

}  // namespace
}  // namespace elmo::dp
