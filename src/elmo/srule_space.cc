#include "elmo/srule_space.h"

#include <stdexcept>

namespace elmo {

SRuleSpace::SRuleSpace(const topo::ClosTopology& topology, std::size_t fmax)
    : topo_{&topology},
      fmax_{fmax},
      leaf_rules_(topology.num_leaves(), 0),
      spine_rules_(topology.num_spines(), 0) {}

bool SRuleSpace::try_reserve_leaf(topo::LeafId leaf) {
  auto& used = leaf_rules_.at(leaf);
  if (used >= fmax_) return false;
  ++used;
  return true;
}

void SRuleSpace::release_leaf(topo::LeafId leaf) {
  auto& used = leaf_rules_.at(leaf);
  if (used == 0) throw std::logic_error{"SRuleSpace: leaf release underflow"};
  --used;
}

bool SRuleSpace::try_reserve_pod_spines(topo::PodId pod) {
  for (std::size_t plane = 0; plane < topo_->params().spines_per_pod;
       ++plane) {
    if (spine_rules_.at(topo_->spine_at(pod, plane)) >= fmax_) return false;
  }
  for (std::size_t plane = 0; plane < topo_->params().spines_per_pod;
       ++plane) {
    ++spine_rules_[topo_->spine_at(pod, plane)];
  }
  return true;
}

void SRuleSpace::release_pod_spines(topo::PodId pod) {
  for (std::size_t plane = 0; plane < topo_->params().spines_per_pod;
       ++plane) {
    auto& used = spine_rules_.at(topo_->spine_at(pod, plane));
    if (used == 0) {
      throw std::logic_error{"SRuleSpace: spine release underflow"};
    }
    --used;
  }
}

util::OnlineStats SRuleSpace::leaf_stats() const {
  util::OnlineStats stats;
  for (const auto used : leaf_rules_) stats.add(used);
  return stats;
}

util::OnlineStats SRuleSpace::spine_stats() const {
  util::OnlineStats stats;
  for (const auto used : spine_rules_) stats.add(used);
  return stats;
}

}  // namespace elmo
