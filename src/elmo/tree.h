// Multicast tree of a group on the (logical) Clos topology (paper §3.1).
//
// The downstream tree is sender-independent: per member leaf, the bitmap of
// host ports to deliver on; per member pod, the bitmap of leaf ports the
// pod's logical spine must fan out to; and the set of member pods the
// logical core must reach. It is kept as flat sorted vectors and updated in
// place as hosts join and leave (add_host / remove_host), so a membership
// event costs one entry, not a rebuild.
//
// Upstream rules are sender-specific. RouteContext computes them (including
// the §3.3 failure path: multipath off + explicit upstream ports chosen by
// greedy set cover) once per sender pod and edits in the few bits each
// sender differs by. MulticastTree::sender_route is its single-host case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "elmo/header.h"
#include "elmo/rules.h"
#include "net/bitmap.h"
#include "topology/clos.h"

namespace elmo {

struct LeafTreeEntry {
  topo::LeafId leaf = 0;
  net::PortBitmap host_ports;  // domain: hosts_per_leaf

  bool operator==(const LeafTreeEntry&) const = default;
};

struct PodTreeEntry {
  topo::PodId pod = 0;
  net::PortBitmap leaf_ports;  // domain: leaves_per_pod

  bool operator==(const PodTreeEntry&) const = default;
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

  // Add or remove one member host in place (adding a member or removing a
  // non-member changes nothing). Afterwards the tree equals one built from
  // the new host set.
  void add_host(topo::HostId host);
  void remove_host(topo::HostId host);

  // Upstream rules + sender-specific core bitmap for `sender` (any host, in
  // the group or not): RouteContext{*this, failures}.route(sender).
  SenderRoute sender_route(topo::HostId sender,
                           const topo::FailureSet& failures) const;

  SenderEncoding sender_encoding(topo::HostId sender) const {
    return sender_route(sender, topo::FailureSet{}).encoding;
  }

  bool operator==(const MulticastTree&) const = default;

 private:
  const topo::ClosTopology* topo_;
  std::vector<LeafTreeEntry> leaves_;  // sorted by leaf id
  std::vector<PodTreeEntry> pods_;     // sorted by pod id
  net::PortBitmap member_pods_;        // domain: num_pods
  std::size_t num_members_ = 0;
};

// The routes of a tree's senders under one failure set. With no failures
// the multipath flag is set; with failures, explicit upstream ports are
// chosen so that every member pod stays reachable where possible.
//
// A route depends on its sender only through the sender's pod, whether
// that pod has member leaves besides the sender's (same-pod fan-out), the
// sender's leaf's member ports, and the sender's own port and leaf. So the
// context computes a pod route once per (pod, same-pod fan-out) — the
// greedy cover of the failure path included — from the member-pod bitmap
// and each pod's member-leaf count, and serializes its upstream sections
// once. Each sender's route and header then take O(1) edits of the pod's:
// its leaf's member ports but its own go into U_LEAF, and its leaf leaves
// U_SPINE. The tree and the failure set must outlive the context.
class RouteContext {
 public:
  RouteContext(const MulticastTree& tree, const topo::FailureSet& failures)
      : tree_{&tree}, failures_{&failures} {}

  SenderRoute route(topo::HostId sender);

  // codec.serialize(route(sender).encoding, shared), where `shared` is
  // codec.serialize_shared(group): the pod route's serialized upstream
  // sections and `shared`, spliced in one exact-size allocation, then the
  // sender's leaf ports added to U_LEAF and its leaf cleared from U_SPINE.
  std::vector<std::uint8_t> header(topo::HostId sender,
                                   const HeaderCodec& codec,
                                   std::span<const std::uint8_t> shared);

 private:
  // The route of a sender in `pod` whose leaf holds no member port and
  // whose pod's U_SPINE still lists its leaf: u_leaf.down is empty and
  // u_spine->down is every member leaf of the pod.
  struct PodRoute {
    SenderRoute route;
    // U_LEAF, U_SPINE and CORE of `route`, serialized once a header asks.
    std::vector<std::uint8_t> upstream;
  };
  // What a sender's route needs to know of its pod.
  struct PodInfo {
    bool known = false;  // pod, entry and member_leaves are set
    topo::PodId pod = 0;
    const PodTreeEntry* entry = nullptr;  // null: the pod has no member
    std::size_t member_leaves = 0;
    // Index into routes_ of the pod route without / with same-pod fan-out.
    std::uint32_t route[2] = {kNoRoute, kNoRoute};
  };
  // Where a sender sits, and its pod route.
  struct Sender {
    const LeafTreeEntry* local = nullptr;  // its leaf's tree entry, if any
    std::size_t port = 0;                  // its port on its leaf
    std::size_t leaf_index = 0;            // its leaf's port on the spine
    PodRoute* pod = nullptr;
  };

  Sender locate(topo::HostId sender);
  PodRoute compute(topo::PodId pod, const PodInfo& info,
                   bool same_pod_fanout) const;

  static constexpr std::uint32_t kNoRoute = ~std::uint32_t{0};

  const MulticastTree* tree_;
  const topo::FailureSet* failures_;
  // The first sender's pod, then a table by pod id for the others, made
  // at the first sender of another pod: a single route allocates no table.
  PodInfo first_;
  std::vector<PodInfo> pods_;
  std::vector<PodRoute> routes_;
};

}  // namespace elmo
