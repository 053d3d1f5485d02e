// Shared data-plane definitions: addressing and the unicast flow hash.
//
// Multicast traffic is hashed per group, not per flow: its one definition,
// topo::group_hash, sits with the ECMP arithmetic in topology/clos.h, where
// the switches, the analytic TrafficEvaluator and the controller all read
// it (tests/sim/crosscheck_test.cc compares the two engines on it).
#pragma once

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

}  // namespace elmo::dp
