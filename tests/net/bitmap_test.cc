#include "net/bitmap.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace elmo::net {
namespace {

TEST(PortBitmap, SetTestClear) {
  PortBitmap b{48};
  EXPECT_FALSE(b.any());
  b.set(0);
  b.set(47);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(47));
  EXPECT_FALSE(b.test(1));
  b.set(0, false);
  EXPECT_FALSE(b.test(0));
  b.clear();
  EXPECT_TRUE(b.none());
}

TEST(PortBitmap, OutOfRangeThrows) {
  PortBitmap b{8};
  EXPECT_THROW(b.set(8), std::out_of_range);
  EXPECT_THROW((void)b.test(100), std::out_of_range);
}

TEST(PortBitmap, MultiWordDomains) {
  PortBitmap b{576};
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(575);
  EXPECT_EQ(b.popcount(), 4u);
  EXPECT_TRUE(b.test(575));
  EXPECT_FALSE(b.test(574));
}

TEST(PortBitmap, OrAndOperations) {
  PortBitmap a{10};
  a.set(1);
  a.set(3);
  PortBitmap b{10};
  b.set(3);
  b.set(5);
  const auto u = a | b;
  EXPECT_EQ(u.popcount(), 3u);
  EXPECT_TRUE(u.test(1) && u.test(3) && u.test(5));
  const auto i = a & b;
  EXPECT_EQ(i.popcount(), 1u);
  EXPECT_TRUE(i.test(3));
}

TEST(PortBitmap, DomainMismatchThrows) {
  PortBitmap a{8};
  PortBitmap b{9};
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW((void)a.hamming_distance(b), std::invalid_argument);
}

TEST(PortBitmap, HammingDistance) {
  PortBitmap a{16};
  a.set(1);
  a.set(2);
  PortBitmap b{16};
  b.set(2);
  b.set(9);
  b.set(10);
  EXPECT_EQ(a.hamming_distance(b), 3u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(PortBitmap, ExtraBitsIn) {
  PortBitmap mine{8};
  mine.set(1);
  PortBitmap shared{8};
  shared.set(1);
  shared.set(2);
  shared.set(3);
  EXPECT_EQ(mine.extra_bits_in(shared), 2u);
  EXPECT_EQ(shared.extra_bits_in(mine), 0u);
}

TEST(PortBitmap, SubsetRelation) {
  PortBitmap small{8};
  small.set(2);
  PortBitmap big{8};
  big.set(2);
  big.set(5);
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  EXPECT_TRUE(small.is_subset_of(small));
}

TEST(PortBitmap, ForEachSetAscending) {
  PortBitmap b{128};
  for (const auto p : {5u, 64u, 66u, 127u}) b.set(p);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{5, 64, 66, 127}));
  EXPECT_EQ(b.set_ports(), seen);
}

TEST(PortBitmap, ToStringMsbIsPortZero) {
  PortBitmap b{4};
  b.set(0);
  b.set(2);
  EXPECT_EQ(b.to_string(), "1010");
}

TEST(PortBitmap, EqualityAndHash) {
  PortBitmap a{32};
  a.set(7);
  PortBitmap b{32};
  b.set(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(8);
  EXPECT_FALSE(a == b);
  // Same bits but different domain size -> different bitmaps.
  PortBitmap c{33};
  c.set(7);
  EXPECT_FALSE(a == c);
}

TEST(PortBitmap, HashRarelyCollidesOnRandomBitmaps) {
  util::Rng rng{99};
  std::vector<PortBitmap> maps;
  for (int i = 0; i < 500; ++i) {
    PortBitmap b{48};
    for (int j = 0; j < 6; ++j) b.set(rng.index(48));
    maps.push_back(std::move(b));
  }
  int collisions = 0;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    for (std::size_t j = i + 1; j < maps.size(); ++j) {
      if (maps[i].hash() == maps[j].hash() && !(maps[i] == maps[j])) {
        ++collisions;
      }
    }
  }
  EXPECT_EQ(collisions, 0);
}

TEST(PortBitmap, SetWordKeepsTheDomain) {
  PortBitmap b{70};
  b.set_word(0, ~0ULL);
  b.set_word(1, ~0ULL);  // only ports 64..69 exist in word 1
  EXPECT_EQ(b.popcount(), 70u);
  EXPECT_EQ(b.words()[1], 0x3fULL);
  EXPECT_THROW(b.set_word(2, 1), std::out_of_range);
}

}  // namespace
}  // namespace elmo::net
