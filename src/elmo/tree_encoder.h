// TreeEncoder: the one encoder between the controller and a tree encoding
// scheme (DESIGN.md §11).
//
// A tree encoder turns the downstream layers of a MulticastTree into the
// sender-independent GroupEncoding (p-rules, s-rules, default p-rule). All
// schemes share the wire format (header.h), the Fmax accounting (one
// reservation per s-rule, through a layer's SRuleReserver), the bulk
// speculate-then-merge encode (encode_batch) and the §7 legacy-leaf
// semantics; they differ only in the layer function that packs one layer's
// switches into p-rules:
//
//   elmo — Algorithm 1: exact-bitmap sharing, extra traffic bounded by R;
//   bert — member clustering (arXiv 2008.04454 flavour): greedy smallest-
//          union groups of up to Kmax switches, trading spurious single
//          copies for fewer header bytes; R is ignored;
//   p3fa — egress-diversity quantization (arXiv 2109.02834 flavour): the
//          layer's bitmaps are merged down to at most E distinct egress
//          classes before rule packing, bounding switch egress diversity.
//
// The scheme is config.encoder; kEncoderSchemes lists each one once.
//
// Contract every layer function must keep (enforced by the differential
// fuzz oracle, tests/elmo/encoder_matrix_test.cc and
// tests/verify/encoder_equivalence_test.cc):
//   * coverage — every tree switch lands in exactly one of {p-rule, s-rule,
//     default}, and its covering bitmap is a superset of its input bitmap;
//   * partition — no switch id appears in two p-rules of one layer (a
//     superset bitmap may deliver single spurious copies, never duplicates);
//   * s-rules carry exact input bitmaps and each one corresponds to exactly
//     one successful reserver call, so release() restores the pre-encode
//     Fmax watermark;
//   * determinism — the output is a pure function of (tree, config, legacy
//     mask, reservation outcomes); no iteration-order or clock dependence.
//     This is what lets encode_batch encode speculatively in parallel and
//     merge deterministically (DESIGN.md §5).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

#include "elmo/clustering.h"
#include "elmo/header.h"
#include "elmo/rules.h"
#include "elmo/srule_space.h"
#include "elmo/tree.h"
#include "util/thread_pool.h"

namespace elmo {

// A scheme's layer function: packs one layer's `inputs` into at most `hmax`
// p-rules of at most `kmax` switch ids each, and spills the rest into
// s-rules through `reserve_srule` or, where it refuses, into the default
// rule. `config` carries the scheme's own knobs (R for elmo, E for p3fa).
using LayerFn = LayerEncoding (*)(std::vector<LayerInput> inputs,
                                  std::size_t hmax, std::size_t kmax,
                                  const EncoderConfig& config,
                                  const SRuleReserver& reserve_srule);

// Algorithm 1 (cluster_layer) under config's R and redundancy mode.
LayerEncoding elmo_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                         std::size_t kmax, const EncoderConfig& config,
                         const SRuleReserver& reserve_srule);
// Densest-first greedy smallest-union clusters of up to kmax switches (the
// MIN-K-UNION greedy of clustering.h, applied unconditionally); the switches
// that do not fit in hmax rules spill with their exact bitmaps.
LayerEncoding bert_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                         std::size_t kmax, const EncoderConfig& config,
                         const SRuleReserver& reserve_srule);
// Quantizes the layer to at most config.p3fa_egress_classes distinct egress
// bitmaps (smallest class merged first, into the class whose union grows
// least), then packs classes largest first in kmax chunks; overflow spills
// with exact bitmaps.
LayerEncoding p3fa_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                         std::size_t kmax, const EncoderConfig& config,
                         const SRuleReserver& reserve_srule);

struct EncoderScheme {
  EncoderKind kind;
  const char* name;  // what to_string prints and parse_encoder_kind reads
  LayerFn layer;
};

// Every scheme, once. Adding one is an EncoderKind value, a row here and
// its layer function.
inline constexpr EncoderScheme kEncoderSchemes[] = {
    {EncoderKind::kElmo, "elmo", &elmo_layer},
    {EncoderKind::kBert, "bert", &bert_layer},
    {EncoderKind::kP3fa, "p3fa", &p3fa_layer},
};

inline constexpr auto kAllEncoderKinds = [] {
  std::array<EncoderKind, std::size(kEncoderSchemes)> kinds{};
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    kinds[i] = kEncoderSchemes[i].kind;
  }
  return kinds;
}();

// What TreeEncoder::encode_batch did; each call adds to the fields.
struct BulkLoadStats {
  std::size_t groups = 0;
  // Trees whose speculative encoding committed verbatim vs. trees the merge
  // pass re-encoded serially (speculative Fmax disagreement — only possible
  // with a finite srule_capacity near exhaustion).
  std::size_t speculative_commits = 0;
  std::size_t serial_reencodes = 0;
  double encode_seconds = 0;  // parallel phase (tree build + encode)
  double merge_seconds = 0;   // deterministic in-order reconciliation
};

class TreeEncoder {
 public:
  // Validates `config` against the topology (throws std::invalid_argument
  // on impossible configs — see validate_encoder_config).
  TreeEncoder(const topo::ClosTopology& topology, const EncoderConfig& config);

  const EncoderConfig& config() const noexcept { return config_; }
  const HeaderCodec& codec() const noexcept { return codec_; }
  const topo::ClosTopology& topology() const noexcept { return *topo_; }
  std::size_t hmax_leaf() const noexcept { return hmax_leaf_; }
  std::size_t hmax_spine() const noexcept { return config_.hmax_spine; }

  // Encodes the downstream layers of `tree`. When `space` is non-null,
  // spill-over switches reserve s-rule entries against Fmax; a null space
  // disables s-rules entirely (ablation of design D5: default-p-rule only).
  // The spine layer is encoded (and reserves) first, then the leaf layer.
  //
  // `legacy_leaf` (optional, indexed by global leaf id) marks leaves whose
  // switches cannot parse Elmo headers (paper §7, incremental deployment):
  // those leaves are forced into s-rules — their group tables remain the
  // scalability bottleneck — and never appear in p-rules or defaults.
  GroupEncoding encode(const MulticastTree& tree, SRuleSpace* space,
                       const std::vector<bool>* legacy_leaf = nullptr) const;

  // Tree i of a batch; encode_batch calls it once per i, concurrently on
  // the pool, and the tree must stay alive and unchanged until it returns.
  using BatchTree = std::function<const MulticastTree&(std::size_t)>;

  // Encodes trees 0..count-1 exactly as encode(tree(i), &space,
  // legacy_leaf) run for i = 0, 1, ... in order would: the same encodings
  // and the same final occupancies, at any thread count (pool == nullptr
  // included). A parallel phase builds and encodes every tree against
  // speculative atomic Fmax counters seeded from `space`; a serial
  // in-order merge then reserves each encoding's s-rules in `space` and
  // re-encodes serially any tree whose speculative reservations cannot be
  // reproduced (DESIGN.md §5). Adds to `stats` when it is non-null.
  std::vector<GroupEncoding> encode_batch(
      std::size_t count, const BatchTree& tree, SRuleSpace& space,
      util::ThreadPool* pool,
      const std::vector<bool>* legacy_leaf = nullptr,
      BulkLoadStats* stats = nullptr) const;

  // Reserves one slot per s-rule of `encoding` in `space`, all or none:
  // on a refusal it releases what it took and returns false. release's
  // inverse.
  bool reserve(const GroupEncoding& encoding, SRuleSpace& space) const;

  // Releases the s-rule reservations a previous encode() made (controller
  // re-encoding path under churn): one slot per recorded s-rule, which the
  // one-reservation-per-s-rule contract makes exact.
  void release(const GroupEncoding& encoding, SRuleSpace& space) const;

  // Serialized header size for `sender`, in bytes (exact, via the codec).
  std::size_t header_bytes(const MulticastTree& tree,
                           const GroupEncoding& encoding,
                           topo::HostId sender) const;

 private:
  // How spill-over switches reserve their group-table entry. Empty
  // functions disable s-rules (as a null space does).
  struct SRuleReservers {
    SRuleReserver leaf;        // called with a global leaf id
    SRuleReserver pod_spines;  // called with a pod id
  };

  // encode() with caller-supplied reservation hooks: encode passes the
  // space's own try_reserve methods, encode_batch's parallel phase its
  // speculative counters.
  GroupEncoding encode_with(const MulticastTree& tree,
                            const SRuleReservers& reservers,
                            const std::vector<bool>* legacy_leaf) const;

  // The layers, each over inputs all schemes share. The leaf layer applies
  // the §7 legacy policy: legacy leaves are reserved first (exact bitmaps),
  // pulled out of the packing inputs, and appended after the scheme's own
  // s-rules — identical semantics across schemes.
  LayerEncoding encode_spine(const MulticastTree& tree,
                             const SRuleReserver& reserve_srule) const;
  LayerEncoding encode_leaf(const MulticastTree& tree,
                            const SRuleReservers& reservers,
                            const std::vector<bool>* legacy_leaf) const;

  const topo::ClosTopology* topo_;
  EncoderConfig config_;
  HeaderCodec codec_;
  std::size_t hmax_leaf_;
  LayerFn layer_;  // config_.encoder's row of kEncoderSchemes
};

// Rejects impossible configs with a descriptive std::invalid_argument:
// zero hmax/kmax, per-layer rule counts beyond the 7-bit wire field, a
// header budget too small to fit even one leaf p-rule at this topology's
// bitmap widths (when hmax_leaf is derived), zero P3FA egress classes, an
// encoder kind with no scheme. Called by the TreeEncoder constructor.
void validate_encoder_config(const topo::ClosTopology& topology,
                             const EncoderConfig& config);

// The scheme's name ("unknown" for a kind no row lists).
const char* to_string(EncoderKind kind) noexcept;
// Parses a scheme name (throws std::invalid_argument otherwise).
EncoderKind parse_encoder_kind(std::string_view name);

}  // namespace elmo
