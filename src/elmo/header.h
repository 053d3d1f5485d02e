// Bit-exact Elmo header codec (paper Fig. 2).
//
// Wire format. The header is a sequence of byte-aligned *sections*, each
// introduced by a 3-bit tag and zero-padded to a byte boundary so network
// switches can pop whole sections without shifting bits (paper D2d):
//
//   header        := section*  END
//   section       := tag(3) body pad-to-byte
//   END           := tag 0
//   U_LEAF  (1)   := multipath(1) up_bitmap(leaf uplinks) down_bitmap(hosts)
//   U_SPINE (2)   := multipath(1) up_bitmap(spine uplinks) down_bitmap(leaf ports)
//   CORE    (3)   := pod_bitmap(pods)
//   SPINE_RULES(4):= has_default(1) count(7) rule* [default_bitmap]
//   LEAF_RULES (5):= has_default(1) count(7) rule* [default_bitmap]
//   rule          := bitmap(layer ports) ( id(id_bits) next_id(1) )+
//
// Upstream / shared split (paper §3). U_LEAF, U_SPINE and CORE depend on
// the sender; SPINE_RULES, LEAF_RULES and END depend only on the group's
// encoding and are the same for every sender. Because every section ends on
// a byte boundary, a sender's header is its upstream sections followed by
// the group's shared bytes verbatim: serialize_shared() writes the shared
// tail once, and serialize(sender, tail) splices it behind each sender's
// upstream sections without re-encoding a bit.
//
// Identifier widths derive from the topology: pod ids at the spine layer,
// global leaf ids at the leaf layer. All size numbers reported by benches
// come from this codec, not from closed-form estimates.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "elmo/rules.h"
#include "net/bitio.h"
#include "topology/clos.h"

namespace elmo {

// Wire limit: the rule-layer count field is 7 bits, so no layer can carry
// more than 127 p-rules. Encoder configs are validated against this.
inline constexpr std::size_t kMaxRulesPerLayer = 127;

enum class SectionTag : std::uint8_t {
  kEnd = 0,
  kULeaf = 1,
  kUSpine = 2,
  kCore = 3,
  kSpineRules = 4,
  kLeafRules = 5,
};

// Fully decoded header (tests and hypervisor-side debugging).
struct ParsedHeader {
  std::optional<UpstreamRule> u_leaf;
  std::optional<UpstreamRule> u_spine;
  std::optional<net::PortBitmap> core_pods;
  std::vector<PRule> spine_rules;
  std::optional<net::PortBitmap> spine_default;
  std::vector<PRule> leaf_rules;
  std::optional<net::PortBitmap> leaf_default;
};

// Byte extent of one section inside a serialized header.
struct SectionExtent {
  SectionTag tag = SectionTag::kEnd;
  std::size_t begin = 0;  // byte offset of the tag
  std::size_t end = 0;    // one past the section's last byte
};

// What one network switch's parser takes from a header (paper §4.1): its
// own layer's rules, plus every section's extent for the egress pops. The
// values equal those a full parse() would yield for that layer; repeated
// sections behave as in parse() (the last upstream, core and default
// section wins, p-rules are numbered across sections, first match wins).
struct LayerParse {
  std::optional<UpstreamRule> upstream;        // this layer's u-rule
  std::optional<net::PortBitmap> matched;      // first p-rule naming match_id
  int matched_index = -1;                      // its index in the layer
  bool matched_shared = false;                 // it lists >1 switch id
  std::optional<net::PortBitmap> default_rule;
  std::optional<net::PortBitmap> core_bitmap;  // core layer only
  std::vector<SectionExtent> sections;         // END last
};

// One layer's view of a header, indexed by a single pass of the section
// grammar (HeaderCodec::index_layer): the layer's upstream rule, default
// and core bitmap decoded, every section's extent, and each p-rule id of the
// layer in header order with where its bitmap starts. A switch then finds
// its p-rule with lookup() instead of re-reading the header; only the
// matched bitmap is decoded, and only when asked. The index refers to the
// bytes it was built from, which must outlive it (or be re-indexed).
class SectionIndex {
 public:
  // Fills `out` as parse_layer(data, layer, match_id, out) would.
  void lookup(std::uint32_t match_id, LayerParse& out) const;

 private:
  friend class HeaderCodec;

  // Where one p-rule id sits: its rule's number within the layer (across
  // sections), the rule bitmap's first bit, and whether the rule lists
  // more than one switch id.
  struct RuleRef {
    std::size_t bitmap_bit = 0;
    std::uint32_t rule = 0;
    bool shared = false;
  };

  std::span<const std::uint8_t> data_;
  std::size_t rule_ports_ = 0;  // bitmap width of this layer's p-rules
  std::optional<UpstreamRule> upstream_;
  std::optional<net::PortBitmap> default_rule_;
  std::optional<net::PortBitmap> core_bitmap_;
  std::vector<SectionExtent> sections_;
  std::vector<std::uint32_t> ids_;  // p-rule ids in header order
  std::vector<RuleRef> refs_;       // refs_[i] locates ids_[i]'s rule
};

class HeaderCodec {
 public:
  explicit HeaderCodec(const topo::ClosTopology& topology)
      : topo_{&topology} {}

  // ---- serialization ---------------------------------------------------
  // The full header of `sender`: serialize(sender, serialize_shared(group)).
  std::vector<std::uint8_t> serialize(const SenderEncoding& sender,
                                      const GroupEncoding& group) const;

  // SPINE_RULES + LEAF_RULES + END of `group`: the bytes every sender's
  // header ends with.
  std::vector<std::uint8_t> serialize_shared(const GroupEncoding& group) const;

  // `sender`'s upstream sections followed by `shared` (the output of
  // serialize_shared), in one allocation.
  std::vector<std::uint8_t> serialize(
      const SenderEncoding& sender,
      std::span<const std::uint8_t> shared) const;

  // The pieces serialize(sender, shared) is made of, for callers that
  // splice headers from them (RouteContext): U_LEAF of a sender whose
  // upstream leaf rule is `u_leaf`, then U_SPINE and CORE of `sender`
  // (absent ones write nothing), each ending on a byte boundary. Written at
  // a byte boundary of `out`.
  void write_u_leaf(net::BitWriter& out, const UpstreamRule& u_leaf) const;
  void write_u_spine_core(net::BitWriter& out,
                          const SenderEncoding& sender) const;

  // Edits of a serialized header that change one bitmap and nothing else:
  // add `ports` to U_LEAF's down bitmap (U_LEAF starts every header), or
  // remove leaf port `leaf_index` from U_SPINE's (which follows U_LEAF
  // when present).
  void add_u_leaf_down_ports(std::span<std::uint8_t> header,
                             const net::PortBitmap& ports) const;
  void clear_u_spine_down_port(std::span<std::uint8_t> header,
                               std::size_t leaf_index) const;

  ParsedHeader parse(std::span<const std::uint8_t> data) const;

  // One pass over `data` for the switches at `layer`: other layers'
  // bitmaps are skipped undecoded and no PRule is built. Throws what
  // parse() throws on the same bytes. `out` is refilled; its vectors keep
  // their capacity.
  void index_layer(std::span<const std::uint8_t> data, topo::Layer layer,
                   SectionIndex& out) const;

  // What a switch at `layer` whose p-rule identifier is `match_id` (leaf
  // id, pod id, or 0 at the core) takes from the header:
  // index_layer(data, layer, idx) then idx.lookup(match_id, out). `out` is
  // overwritten (its section vector keeps its capacity).
  void parse_layer(std::span<const std::uint8_t> data, topo::Layer layer,
                   std::uint32_t match_id, LayerParse& out) const;

  // Section boundaries. The END tag is included as the final extent.
  std::vector<SectionExtent> scan_sections(
      std::span<const std::uint8_t> data) const;

  // Total header length in bytes (up to and including the END tag byte).
  std::size_t header_length(std::span<const std::uint8_t> data) const;

  // ---- layout / budget arithmetic ---------------------------------------
  // Worst-case byte size of a header with the given rule-layer shape.
  std::size_t max_header_bytes(std::size_t hmax_spine, std::size_t hmax_leaf,
                               std::size_t kmax_spine,
                               std::size_t kmax_leaf) const;

  // Largest Hmax for the leaf layer that keeps the worst-case header within
  // the budget (>= 1). Honors cfg.hmax_leaf_override.
  std::size_t derive_hmax_leaf(const EncoderConfig& cfg) const;

  const topo::ClosTopology& topology() const noexcept { return *topo_; }

 private:
  std::size_t section_bits(std::size_t body_bits) const noexcept {
    return ((3 + body_bits + 7) / 8) * 8;  // tag + body, byte padded
  }
  void write_rule_layer(net::BitWriter& out, SectionTag tag,
                        const std::vector<PRule>& rules,
                        const std::optional<net::PortBitmap>& default_rule,
                        unsigned id_bits) const;

  const topo::ClosTopology* topo_;
};

}  // namespace elmo
