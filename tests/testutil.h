// Shared helpers for the test suite.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataplane/forwarding.h"
#include "dataplane/hypervisor_switch.h"
#include "dataplane/network_switch.h"
#include "net/packet.h"
#include "net/packet_view.h"
#include "topology/clos.h"
#include "util/rng.h"

namespace elmo::test {

// `n` distinct hosts drawn uniformly from the fabric.
inline std::vector<topo::HostId> random_hosts(
    const topo::ClosTopology& topology, std::size_t n, util::Rng& rng) {
  std::vector<topo::HostId> hosts;
  hosts.reserve(n);
  for (const auto index : rng.sample_indices(topology.num_hosts(), n)) {
    hosts.push_back(static_cast<topo::HostId>(index));
  }
  return hosts;
}

// One VM delivery of a hypervisor receive.
struct Delivery {
  std::uint32_t vm = 0;
  std::size_t payload_bytes = 0;
};

// Hands `packet` to `hv` as a fabric-ingress packet and returns its VM
// deliveries in emission order (empty when the hypervisor discards it).
inline std::vector<Delivery> receive(dp::HypervisorSwitch& hv,
                                     const net::Packet& packet) {
  dp::EmissionArena arena;
  std::vector<Delivery> deliveries;
  for (const auto& e : hv.process(net::PacketView{packet.bytes()}, arena)) {
    deliveries.push_back(Delivery{static_cast<std::uint32_t>(e.out_port),
                                  e.packet.size()});
  }
  return deliveries;
}

// One emission of a switch forward, materialized into its own packet.
struct Copy {
  std::size_t out_port = 0;
  net::Packet packet;
};

// Runs `sw`'s pipeline on a standalone packet (with a fresh arena, so no
// section index carries over between calls) and returns its emissions in
// order.
inline std::vector<Copy> forward(dp::NetworkSwitch& sw,
                                 const net::Packet& packet) {
  dp::EmissionArena arena;
  std::vector<Copy> copies;
  for (const auto& e : sw.process(net::PacketView{packet.bytes()}, arena)) {
    copies.push_back(Copy{e.out_port, e.packet.materialize()});
  }
  return copies;
}

}  // namespace elmo::test
