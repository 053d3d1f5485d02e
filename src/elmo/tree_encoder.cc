#include "elmo/tree_encoder.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace elmo {
namespace {

const EncoderScheme* find_scheme(EncoderKind kind) noexcept {
  for (const auto& scheme : kEncoderSchemes) {
    if (scheme.kind == kind) return &scheme;
  }
  return nullptr;
}

// Thread-safe *speculative* Fmax accounting for encode_batch's parallel
// phase (DESIGN.md §5): one atomic per switch, seeded from a snapshot of
// the authoritative SRuleSpace, admitting with fetch-add (over-admissions
// rolled back). The view is advisory only: worker interleaving is
// arbitrary, so a speculative admit or deny may disagree with what the
// serial order would have decided, and the merge re-validates every
// reservation against the authoritative space.
class ConcurrentSRuleCounters {
 public:
  explicit ConcurrentSRuleCounters(const SRuleSpace& space)
      : topo_{&space.topology()},
        fmax_{space.fmax()},
        leaf_rules_(space.leaf_occupancies().size()),
        spine_rules_(space.spine_occupancies().size()) {
    for (std::size_t i = 0; i < leaf_rules_.size(); ++i) {
      leaf_rules_[i].store(space.leaf_occupancies()[i],
                           std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < spine_rules_.size(); ++i) {
      spine_rules_[i].store(space.spine_occupancies()[i],
                            std::memory_order_relaxed);
    }
  }

  bool try_reserve_leaf(topo::LeafId leaf) noexcept {
    auto& used = leaf_rules_[leaf];
    if (used.fetch_add(1, std::memory_order_relaxed) >= fmax_) {
      used.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  bool try_reserve_pod_spines(topo::PodId pod) noexcept {
    const auto planes = topo_->params().spines_per_pod;
    for (std::size_t plane = 0; plane < planes; ++plane) {
      auto& used = spine_rules_[topo_->spine_at(pod, plane)];
      if (used.fetch_add(1, std::memory_order_relaxed) >= fmax_) {
        used.fetch_sub(1, std::memory_order_relaxed);
        for (std::size_t undo = 0; undo < plane; ++undo) {
          spine_rules_[topo_->spine_at(pod, undo)].fetch_sub(
              1, std::memory_order_relaxed);
        }
        return false;
      }
    }
    return true;
  }

 private:
  const topo::ClosTopology* topo_;
  std::size_t fmax_;
  std::vector<std::atomic<std::uint32_t>> leaf_rules_;
  std::vector<std::atomic<std::uint32_t>> spine_rules_;
};

}  // namespace

LayerEncoding elmo_layer(std::vector<LayerInput> inputs, std::size_t hmax,
                         std::size_t kmax, const EncoderConfig& config,
                         const SRuleReserver& reserve_srule) {
  const ClusteringLimits limits{
      .hmax = hmax,
      .kmax = kmax,
      .redundancy_limit = config.redundancy_limit,
      .mode = config.redundancy_mode,
  };
  return cluster_layer(inputs, limits, reserve_srule);
}

TreeEncoder::TreeEncoder(const topo::ClosTopology& topology,
                         const EncoderConfig& config)
    : topo_{&topology},
      config_{config},
      codec_{topology},
      hmax_leaf_{0},
      layer_{nullptr} {
  validate_encoder_config(topology, config);
  hmax_leaf_ = codec_.derive_hmax_leaf(config);
  layer_ = find_scheme(config.encoder)->layer;
}

GroupEncoding TreeEncoder::encode(const MulticastTree& tree, SRuleSpace* space,
                                  const std::vector<bool>* legacy_leaf) const {
  SRuleReservers reservers;
  if (space != nullptr) {
    reservers.leaf = [space](std::uint32_t leaf) {
      return space->try_reserve_leaf(leaf);
    };
    reservers.pod_spines = [space](std::uint32_t pod) {
      return space->try_reserve_pod_spines(pod);
    };
  }
  return encode_with(tree, reservers, legacy_leaf);
}

GroupEncoding TreeEncoder::encode_with(
    const MulticastTree& tree, const SRuleReservers& reservers,
    const std::vector<bool>* legacy_leaf) const {
  GroupEncoding out;
  out.spine = encode_spine(tree, reservers.pod_spines);
  out.leaf = encode_leaf(tree, reservers, legacy_leaf);
  return out;
}

std::vector<GroupEncoding> TreeEncoder::encode_batch(
    std::size_t count, const BatchTree& tree, SRuleSpace& space,
    util::ThreadPool* pool, const std::vector<bool>* legacy_leaf,
    BulkLoadStats* stats) const {
  using clock = std::chrono::steady_clock;
  const auto encode_start = clock::now();
  std::vector<GroupEncoding> encodings(count);
  std::vector<const MulticastTree*> trees(count);
  // Whether tree i met a speculative refusal: its encoding then holds a
  // capacity-forced default (or an uncovered legacy leaf) the serial order
  // might not have produced, so the merge must not trust it.
  std::vector<std::uint8_t> denied(count, 0);
  ConcurrentSRuleCounters speculative{space};
  util::parallel_for(pool, 0, count, [&](std::size_t i) {
    trees[i] = &tree(i);
    SRuleReservers reservers;
    reservers.leaf = [&speculative, &denied, i](std::uint32_t leaf) {
      if (speculative.try_reserve_leaf(leaf)) return true;
      denied[i] = 1;
      return false;
    };
    reservers.pod_spines = [&speculative, &denied, i](std::uint32_t pod) {
      if (speculative.try_reserve_pod_spines(pod)) return true;
      denied[i] = 1;
      return false;
    };
    encodings[i] = encode_with(*trees[i], reservers, legacy_leaf);
  });
  const auto merge_start = clock::now();

  // In tree order, commit each speculative encoding by reserving its
  // s-rules in the authoritative space. On any disagreement the space
  // holds exactly what a serial run would hold before tree i, so a plain
  // encode here gives the serial result.
  std::size_t commits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (denied[i] == 0 && reserve(encodings[i], space)) {
      ++commits;
    } else {
      encodings[i] = encode(*trees[i], &space, legacy_leaf);
    }
  }
  const auto merge_end = clock::now();

  if (stats != nullptr) {
    stats->groups += count;
    stats->speculative_commits += commits;
    stats->serial_reencodes += count - commits;
    stats->encode_seconds +=
        std::chrono::duration<double>(merge_start - encode_start).count();
    stats->merge_seconds +=
        std::chrono::duration<double>(merge_end - merge_start).count();
  }
  return encodings;
}

bool TreeEncoder::reserve(const GroupEncoding& encoding,
                          SRuleSpace& space) const {
  const auto& pods = encoding.spine.s_rules;
  const auto& leaves = encoding.leaf.s_rules;
  std::size_t pods_done = 0;
  while (pods_done < pods.size() &&
         space.try_reserve_pod_spines(pods[pods_done].first)) {
    ++pods_done;
  }
  std::size_t leaves_done = 0;
  if (pods_done == pods.size()) {
    while (leaves_done < leaves.size() &&
           space.try_reserve_leaf(leaves[leaves_done].first)) {
      ++leaves_done;
    }
    if (leaves_done == leaves.size()) return true;
  }
  for (std::size_t p = 0; p < pods_done; ++p) {
    space.release_pod_spines(pods[p].first);
  }
  for (std::size_t l = 0; l < leaves_done; ++l) {
    space.release_leaf(leaves[l].first);
  }
  return false;
}

void TreeEncoder::release(const GroupEncoding& encoding,
                          SRuleSpace& space) const {
  for (const auto& [pod, bitmap] : encoding.spine.s_rules) {
    (void)bitmap;
    space.release_pod_spines(pod);
  }
  for (const auto& [leaf, bitmap] : encoding.leaf.s_rules) {
    (void)bitmap;
    space.release_leaf(leaf);
  }
}

std::size_t TreeEncoder::header_bytes(const MulticastTree& tree,
                                      const GroupEncoding& encoding,
                                      topo::HostId sender) const {
  const auto sender_enc = tree.sender_encoding(sender);
  return codec_.serialize(sender_enc, encoding).size();
}

LayerEncoding TreeEncoder::encode_spine(
    const MulticastTree& tree, const SRuleReserver& reserve_srule) const {
  std::vector<LayerInput> inputs;
  inputs.reserve(tree.pods().size());
  for (const auto& pod : tree.pods()) {
    inputs.push_back(LayerInput{pod.pod, pod.leaf_ports});
  }
  // Kmax for the spine layer: 0 means all pods.
  const auto kmax =
      config_.kmax_spine == 0 ? topo_->num_pods() : config_.kmax_spine;
  return layer_(std::move(inputs), config_.hmax_spine, kmax, config_,
                reserve_srule);
}

LayerEncoding TreeEncoder::encode_leaf(
    const MulticastTree& tree, const SRuleReservers& reservers,
    const std::vector<bool>* legacy_leaf) const {
  std::vector<LayerInput> inputs;
  std::vector<std::pair<std::uint32_t, net::PortBitmap>> legacy_srules;
  inputs.reserve(tree.leaves().size());
  for (const auto& leaf : tree.leaves()) {
    if (legacy_leaf != nullptr && leaf.leaf < legacy_leaf->size() &&
        (*legacy_leaf)[leaf.leaf]) {
      // Legacy switches only understand group tables: force an s-rule.
      // If their table is full the leaf stays uncovered (the paper's
      // incremental-deployment bottleneck); we do NOT put it in the
      // default p-rule, which a legacy chip cannot read either.
      if (reservers.leaf && reservers.leaf(leaf.leaf)) {
        legacy_srules.emplace_back(leaf.leaf, leaf.host_ports);
      }
      continue;
    }
    inputs.push_back(LayerInput{leaf.leaf, leaf.host_ports});
  }
  auto out = layer_(std::move(inputs), hmax_leaf_, config_.kmax, config_,
                    reservers.leaf);
  out.s_rules.insert(out.s_rules.end(), legacy_srules.begin(),
                     legacy_srules.end());
  return out;
}

void validate_encoder_config(const topo::ClosTopology& topology,
                             const EncoderConfig& config) {
  if (config.hmax_spine == 0) {
    throw std::invalid_argument{
        "EncoderConfig: hmax_spine must be >= 1 — a zero spine p-rule budget "
        "cannot cover any member pod"};
  }
  if (config.kmax == 0) {
    throw std::invalid_argument{
        "EncoderConfig: kmax must be >= 1 — a p-rule carries at least one "
        "switch id"};
  }
  if (config.hmax_spine > kMaxRulesPerLayer) {
    throw std::invalid_argument{
        "EncoderConfig: hmax_spine exceeds the wire format's 7-bit rule "
        "count (max 127 p-rules per layer)"};
  }
  if (config.hmax_leaf_override > kMaxRulesPerLayer) {
    throw std::invalid_argument{
        "EncoderConfig: hmax_leaf_override exceeds the wire format's 7-bit "
        "rule count (max 127 p-rules per layer)"};
  }
  if (config.hmax_leaf_override == 0) {
    // Hmax for the leaf layer is derived from the budget: the budget must
    // fit at least one leaf p-rule at this topology's bitmap widths, or the
    // derivation would silently emit headers that overflow it.
    const HeaderCodec codec{topology};
    const auto min_bytes = codec.max_header_bytes(
        config.hmax_spine, /*hmax_leaf=*/1, config.kmax_spine, config.kmax);
    if (min_bytes > config.header_budget_bytes) {
      throw std::invalid_argument{
          "EncoderConfig: header_budget_bytes (" +
          std::to_string(config.header_budget_bytes) +
          ") cannot fit one leaf p-rule at this topology's bitmap widths — "
          "worst-case header is " + std::to_string(min_bytes) +
          " bytes; raise the budget or set hmax_leaf_override"};
    }
  }
  if (find_scheme(config.encoder) == nullptr) {
    throw std::invalid_argument{
        "EncoderConfig: encoder kind " +
        std::to_string(static_cast<int>(config.encoder)) +
        " names no scheme"};
  }
  if (config.encoder == EncoderKind::kP3fa &&
      config.p3fa_egress_classes == 0) {
    throw std::invalid_argument{
        "EncoderConfig: p3fa_egress_classes must be >= 1 — zero egress "
        "classes cannot express any forwarding"};
  }
}

const char* to_string(EncoderKind kind) noexcept {
  const auto* scheme = find_scheme(kind);
  return scheme != nullptr ? scheme->name : "unknown";
}

EncoderKind parse_encoder_kind(std::string_view name) {
  std::string expected;
  for (const auto& scheme : kEncoderSchemes) {
    if (name == scheme.name) return scheme.kind;
    expected += expected.empty() ? "" : ", ";
    expected += scheme.name;
  }
  throw std::invalid_argument{"unknown encoder kind: \"" + std::string{name} +
                              "\" (expected one of " + expected + ")"};
}

}  // namespace elmo
