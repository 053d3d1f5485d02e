// GroupEncoder: the Elmo TreeEncoder — turns a multicast tree into Elmo's
// p-/s-/default rules via Algorithm 1.
//
// This ties together the header budget arithmetic (Hmax derivation, in the
// TreeEncoder base), Algorithm 1 per downstream layer, and Fmax accounting.
// The result is the sender-independent GroupEncoding; per-sender upstream
// rules come from MulticastTree::sender_route. Alternative schemes live in
// bert_encoder.h / p3fa_encoder.h; pick by config via make_encoder().
#pragma once

#include "elmo/tree_encoder.h"

namespace elmo {

class GroupEncoder final : public TreeEncoder {
 public:
  GroupEncoder(const topo::ClosTopology& topology, const EncoderConfig& config)
      : TreeEncoder{topology, config} {}

  std::string_view name() const noexcept override { return "elmo"; }
  EncoderKind kind() const noexcept override { return EncoderKind::kElmo; }
  EncoderCapabilities capabilities() const noexcept override {
    return EncoderCapabilities{.honors_redundancy_limit = true,
                               .exact_srule_bitmaps = true,
                               .bounded_egress_diversity = false};
  }

 private:
  // Algorithm 1 (cluster_layer) under this config's R and redundancy mode.
  LayerEncoding encode_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                             std::size_t kmax,
                             const SRuleReserver& reserve_srule) const override;
};

}  // namespace elmo
