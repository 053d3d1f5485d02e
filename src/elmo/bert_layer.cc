// bert: member-clustering layer function (arXiv 2008.04454 flavour).
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
#include <algorithm>

#include "elmo/tree_encoder.h"

namespace elmo {

// Deterministic: inputs are sorted (densest bitmap first, switch id
// breaking ties), each cluster seeds from the first unassigned switch, and
// approx_min_k_union breaks its ties by lowest index — so the output is a
// pure function of the inputs.
LayerEncoding bert_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                         std::size_t kmax, const EncoderConfig& /*config*/,
                         const SRuleReserver& reserve_srule) {
  LayerEncoding out;
  if (inputs.empty()) return out;

  std::sort(inputs.begin(), inputs.end(),
            [](const LayerInput& a, const LayerInput& b) {
              const auto pa = a.bitmap.popcount();
              const auto pb = b.bitmap.popcount();
              if (pa != pb) return pa > pb;
              return a.switch_id < b.switch_id;
            });

  std::vector<LayerInput> remaining = std::move(inputs);
  while (out.p_rules.size() < hmax && !remaining.empty()) {
    std::vector<net::PortBitmap> bitmaps;
    bitmaps.reserve(remaining.size());
    for (const auto& input : remaining) bitmaps.push_back(input.bitmap);
    const auto chosen = approx_min_k_union(bitmaps, /*seed=*/0, kmax);

    PRule rule;
    rule.bitmap = net::PortBitmap{bitmaps.front().size()};
    for (const auto idx : chosen) {
      rule.bitmap |= remaining[idx].bitmap;
      rule.switch_ids.push_back(remaining[idx].switch_id);
    }
    std::sort(rule.switch_ids.begin(), rule.switch_ids.end());
    out.p_rules.push_back(std::move(rule));

    auto sorted = chosen;
    std::sort(sorted.begin(), sorted.end(), std::greater<>{});
    for (const auto idx : sorted) {
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }

  // Whatever did not fit in the header spills with its exact bitmap.
  for (const auto& input : remaining) {
    if (reserve_srule && reserve_srule(input.switch_id)) {
      out.s_rules.emplace_back(input.switch_id, input.bitmap);
    } else {
      if (!out.default_rule) {
        out.default_rule = net::PortBitmap{input.bitmap.size()};
      }
      *out.default_rule |= input.bitmap;
    }
  }
  return out;
}

}  // namespace elmo
