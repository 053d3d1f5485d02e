// Shared data-plane definitions: addressing, the flow hash, counter tables.
//
// Multicast traffic is hashed per group, not per flow: its one definition,
// topo::group_hash, sits with the ECMP arithmetic in topology/clos.h, where
// the switches, the analytic TrafficEvaluator and the controller all read
// it (tests/sim/crosscheck_test.cc compares the two engines on it).
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/headers.h"
#include "topology/clos.h"
#include "util/rng.h"

namespace elmo::dp {

// Host (hypervisor VTEP) addresses live in 10.0.0.0/8.
inline net::Ipv4Address host_address(topo::HostId host) noexcept {
  return net::Ipv4Address{0x0a000000u + host};
}

// Deterministic ECMP-style hash over the outer 3-tuple surrogate of a
// unicast flow (sim::Fabric::send_unicast); its path follows
// ClosTopology::ecmp_plane / ecmp_core like a group's.
inline std::uint64_t flow_hash(net::Ipv4Address outer_src,
                               net::Ipv4Address outer_dst) noexcept {
  std::uint64_t seed = (static_cast<std::uint64_t>(outer_src.value) << 32) |
                       outer_dst.value;
  return util::splitmix64(seed);
}

// Synthetic MAC addresses for the outer Ethernet header.
inline net::MacAddress host_mac(topo::HostId host) noexcept {
  return net::MacAddress{0x02, 0x00,
                         static_cast<std::uint8_t>(host >> 24),
                         static_cast<std::uint8_t>(host >> 16),
                         static_cast<std::uint8_t>(host >> 8),
                         static_cast<std::uint8_t>(host)};
}

inline net::MacAddress fabric_mac() noexcept {
  return net::MacAddress{0x02, 0xfa, 0xb0, 0x00, 0x00, 0x01};
}

// A counter struct (SwitchStats, HypervisorStats, sim::FabricWalkStats)
// names its fields once more in a constexpr StatField table beside it, which
// every reader loops over: the operators below, sim::mtrace and both fabric
// exports (a counter as <prefix><name>_total, a gauge as <prefix><name>).
enum class StatKind : std::uint8_t { kCounter, kGauge };

template <class Stats>
struct StatField {
  const char* name;  // series suffix, e.g. "packets_in"
  std::uint64_t Stats::*member;
  const char* help;
  StatKind kind = StatKind::kCounter;
};

// True when `fields` names each member of `Stats` (all std::uint64_t) once.
template <class Stats, std::size_t N>
constexpr bool covers_every_field(const StatField<Stats> (&fields)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (fields[i].member == fields[j].member) return false;
    }
  }
  return sizeof(Stats) == N * sizeof(std::uint64_t);
}

// Field-wise sum and difference of a struct whose table stat_fields() names,
// unrolled so that summing a fabric's hosts costs what hand-written adds do.
template <class Stats>
  requires requires(const Stats& stats) { stat_fields(stats); }
constexpr Stats& operator+=(Stats& to, const Stats& from) noexcept {
#pragma GCC unroll 16
  for (const auto& f : stat_fields(to)) to.*f.member += from.*f.member;
  return to;
}
template <class Stats>
  requires requires(const Stats& stats) { stat_fields(stats); }
constexpr Stats& operator-=(Stats& to, const Stats& from) noexcept {
#pragma GCC unroll 16
  for (const auto& f : stat_fields(to)) to.*f.member -= from.*f.member;
  return to;
}

}  // namespace elmo::dp
