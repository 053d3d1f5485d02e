#include "elmo/encoder.h"

#include "elmo/clustering.h"

namespace elmo {

LayerEncoding GroupEncoder::encode_layer(
    std::vector<LayerInput> inputs, std::size_t hmax, std::size_t kmax,
    const SRuleReserver& reserve_srule) const {
  const ClusteringLimits limits{
      .hmax = hmax,
      .kmax = kmax,
      .redundancy_limit = config_.redundancy_limit,
      .mode = config_.redundancy_mode,
  };
  return cluster_layer(inputs, limits, reserve_srule);
}

}  // namespace elmo
