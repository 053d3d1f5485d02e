// Rule and encoding types for Elmo's source-routed multicast (paper §3).
//
// A multicast group's forwarding policy is expressed as:
//   * p-rules   — carried in the packet header; a port bitmap plus the list
//                 of (logical) switch identifiers that should apply it;
//   * s-rules   — classic group-table entries installed in network switches
//                 for the switches that did not fit in the header budget;
//   * a default p-rule — the OR of the bitmaps of every switch mapped to
//                 neither, appended last in its layer.
//
// Downstream rules are shared by all senders of a group; upstream rules (and
// the core bitmap) are sender-specific (paper Fig. 3b).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "net/bitmap.h"
#include "topology/clos.h"

namespace elmo {

// A packet rule: output-port bitmap shared by `switch_ids` (logical ids:
// pod ids at the spine layer, global leaf ids at the leaf layer).
struct PRule {
  net::PortBitmap bitmap;
  std::vector<std::uint32_t> switch_ids;

  bool operator==(const PRule&) const = default;
};

// Upstream rule (paper Fig. 2b, type = u): downstream ports to serve local
// receivers on the way up, explicit upstream ports for failure re-routing,
// and the multipath flag selecting the fabric's ECMP/CONGA/HULA scheme.
struct UpstreamRule {
  net::PortBitmap down;  // host ports (leaf) or leaf ports (spine)
  net::PortBitmap up;    // used only when multipath == false
  bool multipath = false;
};

// One downstream layer's encoding (spine or leaf layer).
struct LayerEncoding {
  std::vector<PRule> p_rules;
  std::optional<net::PortBitmap> default_rule;
  // Switches that spilled into group tables: (logical switch id, bitmap).
  std::vector<std::pair<std::uint32_t, net::PortBitmap>> s_rules;

  bool operator==(const LayerEncoding&) const = default;
};

// Sender-independent (shared) part of a group's encoding.
struct GroupEncoding {
  LayerEncoding spine;  // ids are pod ids; bitmaps over a pod's leaf ports
  LayerEncoding leaf;   // ids are global leaf ids; bitmaps over host ports

  std::size_t p_rule_count() const noexcept {
    return spine.p_rules.size() + leaf.p_rules.size();
  }
  std::size_t s_rule_count() const noexcept {
    return spine.s_rules.size() + leaf.s_rules.size();
  }
  bool uses_default() const noexcept {
    return spine.default_rule.has_value() || leaf.default_rule.has_value();
  }

  bool operator==(const GroupEncoding&) const = default;
};

// Sender-specific part: upstream rules plus the core bitmap listing the
// *other* member pods this sender's packets must fan out to.
struct SenderEncoding {
  UpstreamRule u_leaf;
  std::optional<UpstreamRule> u_spine;         // absent if group fits one leaf
  std::optional<net::PortBitmap> core_pods;    // absent if group fits one pod
};

enum class RedundancyMode : std::uint8_t {
  kPerSwitch,    // Algorithm 1 as written: dist(b_i, out) <= R for every i
  kSumOverRule,  // §3.2 prose: sum of distances over the rule <= R
};

// Which tree-encoding scheme turns a multicast tree into rules. All kinds
// share the header codec and the p-/s-/default-rule carrier format; they
// differ in how switches are packed into p-rules (see tree_encoder.h).
enum class EncoderKind : std::uint8_t {
  kElmo = 0,  // Algorithm 1: exact-bitmap sharing bounded by R
  kBert = 1,  // member clustering: smallest-union groups, R ignored
  kP3fa = 2,  // egress-diversity quantization: at most E distinct bitmaps
};

// Knobs of the encoder (paper constants R, Hmax, Kmax, Fmax).
struct EncoderConfig {
  // Total header budget; Hmax for the leaf layer is derived from it unless
  // hmax_leaf_override is set.
  std::size_t header_budget_bytes = 325;
  // Spine-layer p-rules: enough for the pods a pod-local placement touches
  // (a 5,000-VM tenant at P=1 spans multiple pods).
  std::size_t hmax_spine = 6;
  std::size_t hmax_leaf_override = 0;  // 0 = derive from budget
  std::size_t kmax = 2;                // max switch ids sharing one leaf p-rule
  // Spine-layer Kmax (0 = all pods). Pod ids are only a few bits, so a
  // spine p-rule can list several pods cheaply.
  std::size_t kmax_spine = 4;
  std::size_t redundancy_limit = 0;    // R
  // §3.2 prose: R bounds the SUM of Hamming distances over a shared rule.
  RedundancyMode redundancy_mode = RedundancyMode::kSumOverRule;
  // Fmax: group-table entries available per network switch.
  std::size_t srule_capacity = std::numeric_limits<std::size_t>::max();
  // Which encoding scheme TreeEncoder runs (kEncoderSchemes).
  EncoderKind encoder = EncoderKind::kElmo;
  // P3FA only: max distinct egress bitmaps per downstream layer (E).
  std::size_t p3fa_egress_classes = 4;
};

}  // namespace elmo
