// Multicast tree of a group on the (logical) Clos topology (paper §3.1).
//
// The downstream tree is sender-independent: per member leaf, the bitmap of
// host ports to deliver on; per member pod, the bitmap of leaf ports the
// pod's logical spine must fan out to; and the set of member pods the
// logical core must reach. Upstream rules are sender-specific and computed
// on demand (including the §3.3 failure path: multipath off + explicit
// upstream ports chosen by greedy set cover).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "elmo/rules.h"
#include "net/bitmap.h"
#include "topology/clos.h"

namespace elmo {

struct LeafTreeEntry {
  topo::LeafId leaf = 0;
  net::PortBitmap host_ports;  // domain: hosts_per_leaf
};

struct PodTreeEntry {
  topo::PodId pod = 0;
  net::PortBitmap leaf_ports;  // domain: leaves_per_pod
};

// Result of computing a sender's upstream rules under failures: some member
// pods may be unreachable through any alive spine/core combination, in which
// case the hypervisor degrades to unicast for those members (§3.3).
struct SenderRoute {
  SenderEncoding encoding;
  std::vector<topo::PodId> unreachable_pods;
};

class MulticastTree {
 public:
  MulticastTree(const topo::ClosTopology& topology,
                std::span<const topo::HostId> member_hosts);

  const topo::ClosTopology& topology() const noexcept { return *topo_; }

  std::span<const LeafTreeEntry> leaves() const noexcept { return leaves_; }
  std::span<const PodTreeEntry> pods() const noexcept { return pods_; }
  const net::PortBitmap& member_pods() const noexcept { return member_pods_; }

  std::size_t num_members() const noexcept { return num_members_; }
  std::size_t num_leaves() const noexcept { return leaves_.size(); }
  std::size_t num_pods() const noexcept { return pods_.size(); }

  bool spans_multiple_pods() const noexcept { return pods_.size() > 1; }

  const LeafTreeEntry* find_leaf(topo::LeafId leaf) const;
  const PodTreeEntry* find_pod(topo::PodId pod) const;
  bool is_member(topo::HostId host) const;

  // Upstream rules + sender-specific core bitmap for `sender` (any host, in
  // the group or not). With no failures the multipath flag is set; with
  // failures explicit upstream ports are chosen so that every member pod
  // stays reachable where possible.
  SenderRoute sender_route(topo::HostId sender,
                           const topo::FailureSet& failures) const;

  SenderEncoding sender_encoding(topo::HostId sender) const {
    return sender_route(sender, topo::FailureSet{}).encoding;
  }

 private:
  const topo::ClosTopology* topo_;
  std::vector<LeafTreeEntry> leaves_;  // sorted by leaf id
  std::vector<PodTreeEntry> pods_;     // sorted by pod id
  net::PortBitmap member_pods_;        // domain: num_pods
  std::size_t num_members_ = 0;
};

}  // namespace elmo
