// Analytic forwarding walk over a group's Elmo encoding.
//
// Reproduces, hop by hop, exactly what the data plane does to one packet —
// upstream rules at the sender's leaf/spine, the sender-specific core
// bitmap, p-rule / s-rule / default-rule lookup at every downstream switch,
// per-layer header popping — and accounts wire bytes on every link plus
// delivery outcomes (exactly-once to members, spurious copies from shared
// bitmaps and default rules).
//
// This is the engine behind Figures 4/5 (traffic overhead): it is
// cross-validated against the packet-level data plane in
// tests/sim/crosscheck_test.cc, and is fast enough to sweep hundreds of
// thousands of groups.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "elmo/header.h"
#include "elmo/rules.h"
#include "elmo/tree.h"
#include "net/headers.h"

namespace elmo {

struct DeliveryReport {
  std::size_t members_expected = 0;  // receivers (members minus the sender)
  std::size_t members_reached = 0;
  std::size_t duplicate_deliveries = 0;
  std::size_t spurious_deliveries = 0;  // non-member hosts that got a copy

  // Cause split of the excess copies (duplicates + spurious), by the rule
  // class the delivering leaf matched — the analytic mirror of
  // verify::RedundancyBreakdown, cheap enough for full-fabric sweeps.
  std::size_t excess_via_default = 0;       // default p-rule egress
  std::size_t excess_via_shared_prule = 0;  // p-rule bit beyond the exact tree
  std::size_t excess_via_srule = 0;         // group-table (s-rule) egress
  std::size_t excess_via_exact = 0;         // exact-bitmap egress (dups only)

  std::size_t total_excess() const noexcept {
    return duplicate_deliveries + spurious_deliveries;
  }

  bool exactly_once() const noexcept {
    return members_reached == members_expected && duplicate_deliveries == 0;
  }
};

struct TrafficReport {
  std::uint64_t elmo_wire_bytes = 0;
  std::uint64_t ideal_wire_bytes = 0;
  std::uint64_t elmo_link_transmissions = 0;
  std::uint64_t ideal_link_transmissions = 0;
  std::size_t header_bytes_at_source = 0;  // serialized Elmo header size
  DeliveryReport delivery;

  double overhead_ratio() const noexcept {
    return ideal_wire_bytes == 0
               ? 1.0
               : static_cast<double>(elmo_wire_bytes) /
                     static_cast<double>(ideal_wire_bytes);
  }
};

class TrafficEvaluator {
 public:
  explicit TrafficEvaluator(const topo::ClosTopology& topology)
      : topo_{&topology}, codec_{topology} {}

  // Walks one packet of `payload_bytes` (the tenant packet, before the VXLAN
  // outer headers) from `sender`. `flow_hash` seeds the multipath choice;
  // topo::group_hash of the group's address models the fabric's.
  // `legacy_leaf` (optional, indexed by global leaf id) marks leaves whose
  // switches cannot parse Elmo headers: like the real chip, they forward
  // from their group table only — never from a p-rule or the default rule.
  TrafficReport evaluate(const MulticastTree& tree,
                         const GroupEncoding& encoding, topo::HostId sender,
                         std::size_t payload_bytes,
                         std::uint64_t flow_hash = 0,
                         const topo::FailureSet* failures = nullptr,
                         const std::vector<bool>* legacy_leaf = nullptr) const;

  // Ideal-multicast accounting only (bytes over the exact tree, no Elmo
  // header): the denominator of the paper's traffic-overhead ratio.
  static std::uint64_t ideal_transmissions(const MulticastTree& tree,
                                           topo::HostId sender);

 private:
  const topo::ClosTopology* topo_;
  HeaderCodec codec_;
};

}  // namespace elmo
