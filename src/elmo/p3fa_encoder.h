// P3faEncoder: low-egress-diversity tree encoder (arXiv 2109.02834 flavour).
//
// P3FA's observation is that switch forwarding state (and reconfiguration
// churn) scales with the number of DISTINCT egress port sets a switch must
// express, not with the number of groups. This encoder quantizes each
// downstream layer to at most E distinct egress bitmaps (config
// p3fa_egress_classes) before rule packing: classes start as the layer's
// distinct exact bitmaps and are agglomeratively merged — smallest class
// first, into the class whose union grows least — until at most E remain.
// Every switch in a class shares the class bitmap, so p-rules compress well
// (many switch ids per identical bitmap) at the cost of spurious single
// copies where the class bitmap is a strict superset. Switches that still
// overflow Hmax spill with their EXACT bitmaps (s-rules stay precise).
#pragma once

#include "elmo/tree_encoder.h"

namespace elmo {

class P3faEncoder final : public TreeEncoder {
 public:
  P3faEncoder(const topo::ClosTopology& topology, const EncoderConfig& config)
      : TreeEncoder{topology, config} {}

  std::string_view name() const noexcept override { return "p3fa"; }
  EncoderKind kind() const noexcept override { return EncoderKind::kP3fa; }
  EncoderCapabilities capabilities() const noexcept override {
    return EncoderCapabilities{.honors_redundancy_limit = false,
                               .exact_srule_bitmaps = true,
                               .bounded_egress_diversity = true};
  }

 private:
  LayerEncoding encode_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                             std::size_t kmax,
                             const SRuleReserver& reserve_srule) const override;
};

}  // namespace elmo
