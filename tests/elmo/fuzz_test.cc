// Robustness fuzzing: the header codec and the switch parser must never
// crash or read out of bounds on malformed input — they throw typed
// exceptions instead (a hostile tenant cannot source Elmo sections, but the
// parser still must be total over byte strings).
#include <gtest/gtest.h>

#include "dataplane/network_switch.h"
#include "elmo/header.h"
#include "elmo/header_corpus.h"
#include "util/rng.h"
#include "testutil.h"

namespace elmo {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

TEST(Fuzz, HeaderParseIsTotalOverRandomBytes) {
  const auto t = small();
  const HeaderCodec codec{t};
  util::Rng rng{0xfadedace};
  int parsed_ok = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.index(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    try {
      (void)codec.parse(bytes);
      ++parsed_ok;
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::length_error&) {
    }
    try {
      (void)codec.scan_sections(bytes);
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    }
  }
  // Some random strings do decode (e.g. an immediate END tag) — that is
  // fine; what matters is that nothing escaped the typed exceptions above.
  EXPECT_GT(parsed_ok, 0);
}

TEST(Fuzz, TruncatedValidHeadersThrowCleanly) {
  const auto t = small();
  const HeaderCodec codec{t};
  // A real header, truncated at every possible byte length.
  const auto full = test::full_header(t);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::vector<std::uint8_t> cut{full.begin(), full.begin() + len};
    EXPECT_THROW((void)codec.parse(cut), std::out_of_range) << "len " << len;
  }
  EXPECT_NO_THROW((void)codec.parse(full));
}

TEST(Fuzz, BitflippedHeadersNeverCrashTheSwitchParser) {
  const auto t = small();
  dp::NetworkSwitch leaf{t, topo::Layer::kLeaf, 0};
  int survived = 0;
  for (const auto& mutated : test::bitflipped(test::encapsulated_probe(t))) {
    try {
      const auto copies = test::forward(leaf, mutated);
      ++survived;
      // Fan-out is physically bounded by the port count.
      EXPECT_LE(copies.size(), t.leaf_down_ports() + t.leaf_up_ports());
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::length_error&) {
    }
  }
  EXPECT_GT(survived, 0);
}

}  // namespace
}  // namespace elmo
