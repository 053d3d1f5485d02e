#include "net/bitio.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace elmo::net {
namespace {

TEST(BitWriter, MsbFirstLayout) {
  BitWriter out;
  out.write(0b101, 3);
  out.write(0b1, 1);
  out.write(0b0000, 4);
  const auto bytes = out.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110000);
}

TEST(BitWriter, PadsFinalByteWithZeros) {
  BitWriter out;
  out.write(0b11, 2);
  const auto bytes = out.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b11000000);
}

TEST(BitWriter, AlignToByte) {
  BitWriter out;
  out.write(1, 1);
  out.align_to_byte();
  EXPECT_EQ(out.bit_count(), 8u);
  out.write(0xff, 8);
  const auto bytes = out.take();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0x80);
  EXPECT_EQ(bytes[1], 0xff);
}

TEST(BitWriter, RejectsOver64Bits) {
  BitWriter out;
  EXPECT_THROW(out.write(0, 65), std::invalid_argument);
}

TEST(BitReader, ReadsBackWriterOutput) {
  BitWriter out;
  out.write(0x2a, 7);
  out.write_bool(true);
  out.write(0xdeadbeef, 32);
  const auto bytes = out.take();

  BitReader in{bytes};
  EXPECT_EQ(in.read(7), 0x2au);
  EXPECT_TRUE(in.read_bool());
  EXPECT_EQ(in.read(32), 0xdeadbeefu);
}

TEST(BitReader, ThrowsPastEnd) {
  const std::vector<std::uint8_t> one{0xff};
  BitReader in{one};
  in.read(8);
  EXPECT_THROW(in.read(1), std::out_of_range);
}

TEST(BitReader, PositionTracking) {
  const std::vector<std::uint8_t> data{0x00, 0x00, 0x00};
  BitReader in{data};
  in.read(3);
  EXPECT_EQ(in.bit_position(), 3u);
  EXPECT_EQ(in.byte_position(), 1u);  // rounds up
  in.align_to_byte();
  EXPECT_EQ(in.bit_position(), 8u);
  EXPECT_EQ(in.bits_remaining(), 16u);
}

// Every width at every bit offset inside a byte: the byte-per-step codec
// cuts fields at different places depending on where they start.
TEST(BitIo, EveryWidthAtEveryOffsetRoundTrips) {
  util::Rng rng{20190819};
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (unsigned width = 1; width <= 64; ++width) {
      const std::uint64_t mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
      const auto lead = rng() & ((1ULL << offset) - 1);
      const auto value = rng() & mask;
      const auto trail = rng() & 0x1f;
      BitWriter out;
      out.write(lead, offset);
      out.write(value, width);
      out.write(trail, 5);
      EXPECT_EQ(out.bit_count(), offset + width + 5u);
      const auto bytes = out.take();
      BitReader in{bytes};
      EXPECT_EQ(in.read(offset), lead);
      EXPECT_EQ(in.read(width), value)
          << "offset " << offset << " width " << width;
      EXPECT_EQ(in.read(5), trail);
      EXPECT_LT(in.bits_remaining(), 8u);
    }
  }
}

// Every width at every bit offset inside a byte, once mid-buffer (a whole
// 64-bit word follows, so the reader takes one load) and once at the
// buffer's tail (the byte loop): the writer's bytes must equal a
// bit-at-a-time reference, and the reader must return every field.
TEST(BitIo, EveryWidthAtEveryOffsetMidBufferAndAtTheTail) {
  util::Rng rng{1802};
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (unsigned width = 1; width <= 64; ++width) {
      for (const bool at_tail : {false, true}) {
        const std::uint64_t mask =
            width == 64 ? ~0ULL : ((1ULL << width) - 1);
        const auto lead = rng() & ((1ULL << offset) - 1);
        const auto value = rng() & mask;
        const auto trail = rng();
        BitWriter out;
        std::vector<bool> reference;  // MSB-first
        auto put = [&](std::uint64_t v, unsigned bits) {
          out.write(v, bits);
          for (unsigned i = bits; i-- > 0;) reference.push_back((v >> i) & 1);
        };
        put(lead, offset);
        put(value, width);
        if (!at_tail) put(trail, 64);
        const auto bytes = out.take();

        std::vector<std::uint8_t> expected((reference.size() + 7) / 8);
        for (std::size_t i = 0; i < reference.size(); ++i) {
          if (reference[i]) expected[i / 8] |= 0x80 >> (i % 8);
        }
        ASSERT_EQ(bytes, expected)
            << "offset " << offset << " width " << width;

        BitReader in{bytes};
        EXPECT_EQ(in.read(offset), lead);
        EXPECT_EQ(in.read(width), value)
            << "offset " << offset << " width " << width;
        if (at_tail) {
          EXPECT_LT(in.bits_remaining(), 8u);
          EXPECT_THROW(in.read(8), std::out_of_range);
        } else {
          EXPECT_EQ(in.read(64), trail);
        }
      }
    }
  }
}

TEST(BitWriter, IgnoresBitsAboveWidth) {
  for (unsigned width = 1; width < 64; ++width) {
    BitWriter masked;
    BitWriter dirty;
    masked.write(1, 1);
    dirty.write(1, 1);
    const std::uint64_t value = 0x5a5a5a5a5a5a5a5aULL;
    masked.write(value & ((1ULL << width) - 1), width);
    dirty.write(value | ~((1ULL << width) - 1), width);
    EXPECT_EQ(dirty.take(), masked.take()) << "width " << width;
  }
}

TEST(BitReader, SkipPastEndThrows) {
  const std::vector<std::uint8_t> two{0xab, 0xcd};
  BitReader in{two};
  in.skip(3);
  EXPECT_THROW(in.skip(14), std::out_of_range);
  EXPECT_EQ(in.bit_position(), 3u);  // a failed skip does not move
  in.skip(13);
  EXPECT_EQ(in.bits_remaining(), 0u);
  EXPECT_THROW(in.skip(1), std::out_of_range);
  EXPECT_NO_THROW(in.skip(0));
  BitReader wide{two};
  EXPECT_THROW(wide.skip(100), std::out_of_range);  // wider than 64 bits
}

TEST(BitReader, SkipMatchesReadAndDiscard) {
  util::Rng rng{7};
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (std::size_t gap = 0; gap <= 200; ++gap) {
    BitReader skipped{data};
    BitReader read{data};
    skipped.skip(gap);
    for (auto left = gap; left > 0;) {
      const auto n = static_cast<unsigned>(std::min<std::size_t>(left, 64));
      read.read(n);
      left -= n;
    }
    EXPECT_EQ(skipped.bit_position(), read.bit_position());
    EXPECT_EQ(skipped.read(37), read.read(37)) << "gap " << gap;
  }
}

// Property: random field sequences round-trip for all widths.
class BitIoRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitIoRoundTrip, RandomValuesSurvive) {
  const unsigned width = GetParam();
  util::Rng rng{width * 7919u};
  std::vector<std::uint64_t> values;
  BitWriter out;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t mask =
        width == 64 ? ~0ULL : ((1ULL << width) - 1);
    const auto v = rng() & mask;
    values.push_back(v);
    out.write(v, width);
  }
  const auto bytes = out.take();
  BitReader in{bytes};
  for (const auto v : values) {
    EXPECT_EQ(in.read(width), v);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitIoRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u, 11u, 13u,
                                           16u, 24u, 31u, 32u, 48u, 63u, 64u));

TEST(ReverseBits, MirrorsTheWord) {
  EXPECT_EQ(reverse_bits(1), 1ULL << 63);
  EXPECT_EQ(reverse_bits(0x00000000000000f0ULL), 0x0f00000000000000ULL);
  util::Rng rng{11};
  for (int i = 0; i < 100; ++i) {
    const auto x = rng();
    EXPECT_EQ(reverse_bits(reverse_bits(x)), x);
    EXPECT_EQ(reverse_bits(x) >> 63, x & 1);
  }
}

TEST(BitsFor, KnownValues) {
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(12), 4u);
  EXPECT_EQ(bits_for(576), 10u);
  EXPECT_EQ(bits_for(1024), 10u);
  EXPECT_EQ(bits_for(1025), 11u);
}

}  // namespace
}  // namespace elmo::net
