// Group-table (s-rule) capacity accounting across the fabric.
//
// s-rules live in real switch group tables, a resource shared by all groups
// (Fmax per switch, paper §3.2). A spine-layer rule is logical — the packet
// may arrive at any physical spine of the pod depending on the multipath
// hash — so reserving a pod's spine rule consumes one entry in *every*
// physical spine of that pod.
//
// SRuleSpace is the authoritative, single-threaded count. The parallel bulk
// encode (TreeEncoder::encode_batch) speculates against its own atomic
// snapshot of it and then commits in order here through
// TreeEncoder::reserve, all of an encoding's s-rules or none (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/clos.h"
#include "util/stats.h"

namespace elmo {

class SRuleSpace {
 public:
  SRuleSpace(const topo::ClosTopology& topology, std::size_t fmax);

  std::size_t fmax() const noexcept { return fmax_; }
  const topo::ClosTopology& topology() const noexcept { return *topo_; }

  // Reserve / release one entry at a leaf switch.
  bool try_reserve_leaf(topo::LeafId leaf);
  void release_leaf(topo::LeafId leaf);

  // Reserve / release one entry in every physical spine of `pod`.
  bool try_reserve_pod_spines(topo::PodId pod);
  void release_pod_spines(topo::PodId pod);

  std::size_t leaf_occupancy(topo::LeafId leaf) const {
    return leaf_rules_.at(leaf);
  }
  std::size_t spine_occupancy(topo::SpineId spine) const {
    return spine_rules_.at(spine);
  }

  util::OnlineStats leaf_stats() const;
  util::OnlineStats spine_stats() const;
  std::span<const std::uint32_t> leaf_occupancies() const noexcept {
    return leaf_rules_;
  }
  std::span<const std::uint32_t> spine_occupancies() const noexcept {
    return spine_rules_;
  }

 private:
  const topo::ClosTopology* topo_;
  std::size_t fmax_;
  std::vector<std::uint32_t> leaf_rules_;
  std::vector<std::uint32_t> spine_rules_;
};

}  // namespace elmo
