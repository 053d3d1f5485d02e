// p3fa: low-egress-diversity layer function (arXiv 2109.02834 flavour).
//
// P3FA's observation is that switch forwarding state (and reconfiguration
// churn) scales with the number of DISTINCT egress port sets a switch must
// express, not with the number of groups. This scheme quantizes each
// downstream layer to at most E distinct egress bitmaps (config
// p3fa_egress_classes) before rule packing: classes start as the layer's
// distinct exact bitmaps and are agglomeratively merged — smallest class
// first, into the class whose union grows least — until at most E remain.
// Every switch in a class shares the class bitmap, so p-rules compress well
// (many switch ids per identical bitmap) at the cost of spurious single
// copies where the class bitmap is a strict superset. Switches that still
// overflow Hmax spill with their EXACT bitmaps (s-rules stay precise).
#include <algorithm>
#include <limits>

#include "elmo/tree_encoder.h"

namespace elmo {
namespace {

// One egress class under quantization: the shared (union) bitmap plus the
// member switches with their exact bitmaps (kept for precise s-rule spill).
struct EgressClass {
  net::PortBitmap bitmap;
  std::vector<const LayerInput*> members;
};

}  // namespace

// Deterministic throughout: inputs are sorted by switch id, classes keep
// first-appearance order, and all ties break toward the lowest index.
LayerEncoding p3fa_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                         std::size_t kmax, const EncoderConfig& config,
                         const SRuleReserver& reserve_srule) {
  LayerEncoding out;
  if (inputs.empty()) return out;

  std::sort(inputs.begin(), inputs.end(),
            [](const LayerInput& a, const LayerInput& b) {
              return a.switch_id < b.switch_id;
            });

  // Seed one class per distinct exact bitmap (first-appearance order).
  std::vector<EgressClass> classes;
  for (const auto& input : inputs) {
    auto it = std::find_if(classes.begin(), classes.end(),
                           [&](const EgressClass& c) {
                             return c.bitmap == input.bitmap;
                           });
    if (it == classes.end()) {
      classes.push_back(EgressClass{input.bitmap, {&input}});
    } else {
      it->members.push_back(&input);
    }
  }

  // Quantize down to at most E classes: repeatedly dissolve the smallest
  // class into the neighbour whose union bitmap grows least. O(C^2) overall.
  const std::size_t max_classes = config.p3fa_egress_classes;
  while (classes.size() > max_classes) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < classes.size(); ++i) {
      const auto& a = classes[i];
      const auto& v = classes[victim];
      if (a.members.size() < v.members.size() ||
          (a.members.size() == v.members.size() &&
           a.bitmap.popcount() < v.bitmap.popcount())) {
        victim = i;
      }
    }
    std::size_t target = classes.size();
    std::size_t best_union = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (i == victim) continue;
      const auto union_pop =
          (classes[i].bitmap | classes[victim].bitmap).popcount();
      if (union_pop < best_union) {
        best_union = union_pop;
        target = i;
      }
    }
    auto& dst = classes[target];
    auto& src = classes[victim];
    dst.bitmap |= src.bitmap;
    dst.members.insert(dst.members.end(), src.members.begin(),
                       src.members.end());
    classes.erase(classes.begin() + static_cast<std::ptrdiff_t>(victim));
  }

  // Pack classes into p-rules, largest class first: a class of m switches
  // costs ceil(m / kmax) rules, all sharing the class bitmap. Switches that
  // overflow Hmax spill with their exact bitmaps.
  std::sort(classes.begin(), classes.end(),
            [](const EgressClass& a, const EgressClass& b) {
              if (a.members.size() != b.members.size()) {
                return a.members.size() > b.members.size();
              }
              return a.members.front()->switch_id <
                     b.members.front()->switch_id;
            });

  std::vector<const LayerInput*> spill;
  for (auto& cls : classes) {
    std::sort(cls.members.begin(), cls.members.end(),
              [](const LayerInput* a, const LayerInput* b) {
                return a->switch_id < b->switch_id;
              });
    for (std::size_t at = 0; at < cls.members.size(); at += kmax) {
      const auto take = std::min(kmax, cls.members.size() - at);
      if (out.p_rules.size() >= hmax) {
        for (std::size_t i = 0; i < take; ++i) {
          spill.push_back(cls.members[at + i]);
        }
        continue;
      }
      PRule rule;
      rule.bitmap = cls.bitmap;
      for (std::size_t i = 0; i < take; ++i) {
        rule.switch_ids.push_back(cls.members[at + i]->switch_id);
      }
      out.p_rules.push_back(std::move(rule));
    }
  }

  std::sort(spill.begin(), spill.end(),
            [](const LayerInput* a, const LayerInput* b) {
              return a->switch_id < b->switch_id;
            });
  for (const auto* input : spill) {
    if (reserve_srule && reserve_srule(input->switch_id)) {
      out.s_rules.emplace_back(input->switch_id, input->bitmap);
    } else {
      if (!out.default_rule) {
        out.default_rule = net::PortBitmap{input->bitmap.size()};
      }
      *out.default_rule |= input->bitmap;
    }
  }
  return out;
}

}  // namespace elmo
