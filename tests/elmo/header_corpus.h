// Header inputs shared by the codec tests: random well-formed encodings,
// truncations of a real header, and bit-flipped copies of a real packet.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dataplane/hypervisor_switch.h"
#include "elmo/controller.h"
#include "elmo/header.h"
#include "net/packet.h"
#include "util/rng.h"

namespace elmo::test {

using Encoding = std::pair<SenderEncoding, GroupEncoding>;

// `trials` random encodings: a random leaf upstream rule plus 0-4 leaf
// p-rules, each with 1-3 random leaf ids.
inline std::vector<Encoding> random_encodings(const topo::ClosTopology& fabric,
                                              std::uint64_t seed = 404,
                                              int trials = 200) {
  util::Rng rng{seed};
  std::vector<Encoding> out;
  for (int trial = 0; trial < trials; ++trial) {
    SenderEncoding sender;
    sender.u_leaf.down = net::PortBitmap{fabric.leaf_down_ports()};
    sender.u_leaf.up = net::PortBitmap{fabric.leaf_up_ports()};
    for (std::size_t p = 0; p < fabric.leaf_down_ports(); ++p) {
      if (rng.bernoulli(0.3)) sender.u_leaf.down.set(p);
    }
    sender.u_leaf.multipath = rng.bernoulli(0.5);

    GroupEncoding group;
    const auto nrules = rng.index(5);
    for (std::size_t r = 0; r < nrules; ++r) {
      PRule rule;
      rule.bitmap = net::PortBitmap{fabric.leaf_down_ports()};
      for (std::size_t p = 0; p < fabric.leaf_down_ports(); ++p) {
        if (rng.bernoulli(0.4)) rule.bitmap.set(p);
      }
      const auto nids = 1 + rng.index(3);
      for (std::size_t i = 0; i < nids; ++i) {
        rule.switch_ids.push_back(
            static_cast<std::uint32_t>(rng.index(fabric.num_leaves())));
      }
      group.leaf.p_rules.push_back(std::move(rule));
    }
    out.emplace_back(std::move(sender), std::move(group));
  }
  return out;
}

// A header with every section kind (U_LEAF, U_SPINE, CORE, LEAF_RULES),
// the source of the truncation corpus.
inline std::vector<std::uint8_t> full_header(const topo::ClosTopology& t) {
  const HeaderCodec codec{t};
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  sender.u_leaf.down.set(1);
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  sender.u_leaf.multipath = true;
  UpstreamRule u_spine;
  u_spine.down = net::PortBitmap{t.spine_down_ports()};
  u_spine.up = net::PortBitmap{t.spine_up_ports()};
  u_spine.multipath = true;
  sender.u_spine = u_spine;
  sender.core_pods = net::PortBitmap{t.core_ports()};
  sender.core_pods->set(2);
  GroupEncoding group;
  group.leaf.p_rules.push_back(PRule{sender.u_leaf.down, {3, 9}});
  return codec.serialize(sender, group);
}

// A controller-encoded packet for a two-member cross-pod group, as the
// sending hypervisor puts it on the wire.
inline net::Packet encapsulated_probe(const topo::ClosTopology& t) {
  Controller controller{t, EncoderConfig{}};
  const std::vector<Member> members{{0, 0, MemberRole::kBoth},
                                    {17, 1, MemberRole::kBoth}};
  const auto id = controller.create_group(0, members);
  dp::HypervisorSwitch hv{t, 0};
  dp::HypervisorSwitch::GroupFlow flow;
  flow.elmo_header = controller.header_for(id, 0);
  hv.install_flow(controller.group(id).address, flow);
  return *hv.encapsulate(controller.group(id).address,
                         std::vector<std::uint8_t>(32, 0));
}

// `trials` copies of `clean`, each with 1-4 bits flipped anywhere beyond
// the outer Ethernet/IP version bytes.
inline std::vector<net::Packet> bitflipped(const net::Packet& clean,
                                           std::uint64_t seed = 4242,
                                           int trials = 2000) {
  util::Rng rng{seed};
  std::vector<net::Packet> out;
  for (int trial = 0; trial < trials; ++trial) {
    net::Packet mutated = clean;
    const auto flips = 1 + rng.index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const auto at = 34 + rng.index(mutated.size() - 34);
      mutated.mutable_bytes()[at] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    out.push_back(std::move(mutated));
  }
  return out;
}

}  // namespace elmo::test
