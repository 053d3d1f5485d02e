// BertEncoder: member-clustering tree encoder (arXiv 2008.04454 flavour).
//
// Where Elmo's Algorithm 1 only shares a p-rule when the redundancy bound R
// admits it, Bert-style encoding clusters aggressively: each downstream
// layer is greedily partitioned into groups of up to Kmax switches with the
// (approximately) smallest bitmap union, seeded from the densest unassigned
// switch — the same MIN-K-UNION greedy as clustering.h, but applied
// unconditionally. The result is fewer, wider p-rules: smaller headers and
// less s-rule spill, paid for with spurious single-copy deliveries (never
// duplicates — the groups partition the layer's switches, and a superset
// bitmap can only add egress ports). R is ignored by design; the bake-off
// quantifies the trade.
#pragma once

#include "elmo/tree_encoder.h"

namespace elmo {

class BertEncoder final : public TreeEncoder {
 public:
  BertEncoder(const topo::ClosTopology& topology, const EncoderConfig& config)
      : TreeEncoder{topology, config} {}

  std::string_view name() const noexcept override { return "bert"; }
  EncoderKind kind() const noexcept override { return EncoderKind::kBert; }
  EncoderCapabilities capabilities() const noexcept override {
    return EncoderCapabilities{.honors_redundancy_limit = false,
                               .exact_srule_bitmaps = true,
                               .bounded_egress_diversity = false};
  }

 private:
  LayerEncoding encode_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                             std::size_t kmax,
                             const SRuleReserver& reserve_srule) const override;
};

}  // namespace elmo
