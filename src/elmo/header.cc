#include "elmo/header.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace elmo {
namespace {

constexpr unsigned kTagBits = 3;
constexpr unsigned kCountBits = 7;
static_assert(kMaxRulesPerLayer == (1u << kCountBits) - 1,
              "kMaxRulesPerLayer must match the wire count field width");

// Port bitmaps go on the wire port 0 first, one 64-port word per call:
// a PortBitmap word holds port 0 in its LSB, so each word is bit-reversed.
void write_bitmap(net::BitWriter& out, const net::PortBitmap& bitmap) {
  std::size_t left = bitmap.size();
  for (const auto word : bitmap.words()) {
    const auto n = static_cast<unsigned>(std::min<std::size_t>(left, 64));
    out.write(net::reverse_bits(word) >> (64 - n), n);
    left -= n;
  }
}

net::PortBitmap read_bitmap(net::BitReader& in, std::size_t ports) {
  net::PortBitmap bitmap{ports};
  for (std::size_t wi = 0; ports > 0; ++wi) {
    const auto n = static_cast<unsigned>(std::min<std::size_t>(ports, 64));
    bitmap.set_word(wi, net::reverse_bits(in.read(n) << (64 - n)));
    ports -= n;
  }
  return bitmap;
}

void write_upstream(net::BitWriter& out, const UpstreamRule& rule) {
  out.write_bool(rule.multipath);
  write_bitmap(out, rule.up);
  write_bitmap(out, rule.down);
}

// A bitmap the walker stepped over; decoded only if a visitor asks.
struct BitmapAt {
  net::BitReader at;  // positioned at the bitmap's first bit
  std::size_t ports;

  net::PortBitmap decode() const {
    auto in = at;
    return read_bitmap(in, ports);
  }
};

// Visitor that ignores everything; visitors derive from it and hide the
// callbacks they care about.
struct SkipAll {
  void upstream(SectionTag, bool /*multipath*/, const BitmapAt& /*up*/,
                const BitmapAt& /*down*/) {}
  void core(const BitmapAt&) {}
  void rule_id(SectionTag, std::uint32_t) {}              // each id of a p-rule
  void rule_end(SectionTag, const BitmapAt& /*bitmap*/) {}  // after its last id
  void default_rule(SectionTag, const BitmapAt&) {}
  void extent(const SectionExtent&) {}
};

// The one reader of the section grammar (header.h). It steps over every
// bitmap without decoding it, tells the visitor what it passed, and
// returns the header length in bytes. A truncated header throws
// std::out_of_range, an unknown tag std::invalid_argument.
template <typename Visitor>
std::size_t walk(const topo::ClosTopology& t,
                 std::span<const std::uint8_t> data, Visitor& visit) {
  net::BitReader in{data};
  auto bitmap = [&](std::size_t ports) {
    const BitmapAt at{in, ports};
    in.skip(ports);
    return at;
  };
  while (true) {
    SectionExtent extent;
    extent.begin = in.byte_position();
    if (in.bits_remaining() < kTagBits) {
      throw std::out_of_range{"ElmoHeader: missing END section"};
    }
    extent.tag = static_cast<SectionTag>(in.read(kTagBits));
    switch (extent.tag) {
      case SectionTag::kEnd:
        break;
      case SectionTag::kULeaf:
      case SectionTag::kUSpine: {
        const bool leaf = extent.tag == SectionTag::kULeaf;
        const bool multipath = in.read_bool();
        const auto up = bitmap(leaf ? t.leaf_up_ports() : t.spine_up_ports());
        const auto down =
            bitmap(leaf ? t.leaf_down_ports() : t.spine_down_ports());
        visit.upstream(extent.tag, multipath, up, down);
        break;
      }
      case SectionTag::kCore:
        visit.core(bitmap(t.core_ports()));
        break;
      case SectionTag::kSpineRules:
      case SectionTag::kLeafRules: {
        const bool leaf = extent.tag == SectionTag::kLeafRules;
        const std::size_t ports =
            leaf ? t.leaf_down_ports() : t.spine_down_ports();
        const unsigned id_bits = leaf ? t.leaf_id_bits() : t.pod_id_bits();
        const bool has_default = in.read_bool();
        const auto count = in.read(kCountBits);
        for (std::uint64_t r = 0; r < count; ++r) {
          const auto rule = bitmap(ports);
          do {
            visit.rule_id(extent.tag,
                          static_cast<std::uint32_t>(in.read(id_bits)));
          } while (in.read_bool());
          visit.rule_end(extent.tag, rule);
        }
        if (has_default) visit.default_rule(extent.tag, bitmap(ports));
        break;
      }
      default:
        throw std::invalid_argument{"ElmoHeader: unknown section tag"};
    }
    in.align_to_byte();
    extent.end = in.byte_position();
    visit.extent(extent);
    if (extent.tag == SectionTag::kEnd) return extent.end;
  }
}

UpstreamRule decode_upstream(bool multipath, const BitmapAt& up,
                             const BitmapAt& down) {
  return UpstreamRule{
      .down = down.decode(), .up = up.decode(), .multipath = multipath};
}

}  // namespace

void HeaderCodec::write_rule_layer(
    net::BitWriter& out, SectionTag tag, const std::vector<PRule>& rules,
    const std::optional<net::PortBitmap>& default_rule,
    unsigned id_bits) const {
  if (rules.empty() && !default_rule) return;  // omit empty section
  if (rules.size() > kMaxRulesPerLayer) {
    throw std::length_error{"HeaderCodec: too many p-rules in one layer"};
  }
  out.write(static_cast<std::uint64_t>(tag), kTagBits);
  out.write_bool(default_rule.has_value());
  out.write(rules.size(), kCountBits);
  for (const auto& rule : rules) {
    if (rule.switch_ids.empty()) {
      throw std::invalid_argument{"HeaderCodec: p-rule without switch ids"};
    }
    write_bitmap(out, rule.bitmap);
    for (std::size_t i = 0; i < rule.switch_ids.size(); ++i) {
      out.write(rule.switch_ids[i], id_bits);
      out.write_bool(i + 1 < rule.switch_ids.size());
    }
  }
  if (default_rule) write_bitmap(out, *default_rule);
  out.align_to_byte();
}

std::vector<std::uint8_t> HeaderCodec::serialize(
    const SenderEncoding& sender, const GroupEncoding& group) const {
  return serialize(sender, serialize_shared(group));
}

std::vector<std::uint8_t> HeaderCodec::serialize_shared(
    const GroupEncoding& group) const {
  net::BitWriter out;
  write_rule_layer(out, SectionTag::kSpineRules, group.spine.p_rules,
                   group.spine.default_rule, topo_->pod_id_bits());
  write_rule_layer(out, SectionTag::kLeafRules, group.leaf.p_rules,
                   group.leaf.default_rule, topo_->leaf_id_bits());
  out.write(static_cast<std::uint64_t>(SectionTag::kEnd), kTagBits);
  out.align_to_byte();
  return out.take();
}

void HeaderCodec::write_u_leaf(net::BitWriter& out,
                               const UpstreamRule& u_leaf) const {
  out.write(static_cast<std::uint64_t>(SectionTag::kULeaf), kTagBits);
  write_upstream(out, u_leaf);
  out.align_to_byte();
}

void HeaderCodec::write_u_spine_core(net::BitWriter& out,
                                     const SenderEncoding& sender) const {
  if (sender.u_spine) {
    out.write(static_cast<std::uint64_t>(SectionTag::kUSpine), kTagBits);
    write_upstream(out, *sender.u_spine);
    out.align_to_byte();
  }
  if (sender.core_pods) {
    out.write(static_cast<std::uint64_t>(SectionTag::kCore), kTagBits);
    write_bitmap(out, *sender.core_pods);
    out.align_to_byte();
  }
}

std::vector<std::uint8_t> HeaderCodec::serialize(
    const SenderEncoding& sender, std::span<const std::uint8_t> shared) const {
  auto upstream_bits = [&](const UpstreamRule& rule) {
    return section_bits(1 + rule.up.size() + rule.down.size());
  };
  std::size_t bits = upstream_bits(sender.u_leaf);
  if (sender.u_spine) bits += upstream_bits(*sender.u_spine);
  if (sender.core_pods) bits += section_bits(sender.core_pods->size());

  net::BitWriter out;
  out.reserve(bits / 8 + shared.size());
  write_u_leaf(out, sender.u_leaf);
  write_u_spine_core(out, sender);
  // Every section above ends byte-aligned, so the shared tail is appended
  // as bytes; the reserve above makes this append allocation-free.
  auto header = out.take();
  header.insert(header.end(), shared.begin(), shared.end());
  return header;
}

void HeaderCodec::add_u_leaf_down_ports(std::span<std::uint8_t> header,
                                        const net::PortBitmap& ports) const {
  // U_LEAF's tag, multipath flag and up bitmap, then the down bitmap port 0
  // first.
  const std::size_t down = kTagBits + 1 + topo_->leaf_up_ports();
  ports.for_each_set([&](std::size_t port) {
    const auto bit = down + port;
    header[bit / 8] |= static_cast<std::uint8_t>(0x80u >> (bit % 8));
  });
}

void HeaderCodec::clear_u_spine_down_port(std::span<std::uint8_t> header,
                                          std::size_t leaf_index) const {
  // All of U_LEAF, then U_SPINE's tag, multipath flag and up bitmap.
  const auto bit =
      section_bits(1 + topo_->leaf_up_ports() + topo_->leaf_down_ports()) +
      kTagBits + 1 + topo_->spine_up_ports() + leaf_index;
  header[bit / 8] &= static_cast<std::uint8_t>(~(0x80u >> (bit % 8)));
}

ParsedHeader HeaderCodec::parse(std::span<const std::uint8_t> data) const {
  struct Decoder : SkipAll {
    ParsedHeader header;
    PRule rule;  // p-rule whose ids are being read

    void upstream(SectionTag tag, bool multipath, const BitmapAt& up,
                  const BitmapAt& down) {
      (tag == SectionTag::kULeaf ? header.u_leaf : header.u_spine) =
          decode_upstream(multipath, up, down);
    }
    void core(const BitmapAt& pods) { header.core_pods = pods.decode(); }
    void rule_id(SectionTag, std::uint32_t id) {
      rule.switch_ids.push_back(id);
    }
    void rule_end(SectionTag tag, const BitmapAt& bitmap) {
      rule.bitmap = bitmap.decode();
      (tag == SectionTag::kLeafRules ? header.leaf_rules : header.spine_rules)
          .push_back(std::exchange(rule, PRule{}));
    }
    void default_rule(SectionTag tag, const BitmapAt& bitmap) {
      (tag == SectionTag::kLeafRules ? header.leaf_default
                                     : header.spine_default) = bitmap.decode();
    }
  } decoder;
  walk(*topo_, data, decoder);
  return std::move(decoder.header);
}

void HeaderCodec::index_layer(std::span<const std::uint8_t> data,
                              topo::Layer layer, SectionIndex& out) const {
  // Keeps the sections of one layer; kEnd marks "this layer has none".
  struct OwnLayer : SkipAll {
    SectionIndex& out;
    SectionTag upstream_tag = SectionTag::kEnd;
    SectionTag rules_tag = SectionTag::kEnd;
    bool decode_core = false;
    std::uint32_t rule = 0;    // own-layer p-rules passed, across sections
    std::size_t first_id = 0;  // out.ids_ index of the current rule's first id

    void upstream(SectionTag tag, bool multipath, const BitmapAt& up,
                  const BitmapAt& down) {
      if (tag == upstream_tag) {
        out.upstream_ = decode_upstream(multipath, up, down);
      }
    }
    void core(const BitmapAt& pods) {
      if (decode_core) out.core_bitmap_ = pods.decode();
    }
    void rule_id(SectionTag tag, std::uint32_t id) {
      if (tag == rules_tag) out.ids_.push_back(id);
    }
    void rule_end(SectionTag tag, const BitmapAt& bitmap) {
      if (tag != rules_tag) return;
      const std::size_t n = out.ids_.size() - first_id;
      out.refs_.resize(out.ids_.size(),
                       SectionIndex::RuleRef{bitmap.at.bit_position(), rule,
                                             n > 1});
      first_id = out.ids_.size();
      ++rule;
    }
    void default_rule(SectionTag tag, const BitmapAt& bitmap) {
      if (tag == rules_tag) out.default_rule_ = bitmap.decode();
    }
    void extent(const SectionExtent& e) { out.sections_.push_back(e); }
  };

  out.data_ = data;
  out.upstream_.reset();
  out.default_rule_.reset();
  out.core_bitmap_.reset();
  out.sections_.clear();
  out.ids_.clear();
  out.refs_.clear();
  OwnLayer own{{}, out};
  switch (layer) {
    case topo::Layer::kLeaf:
      own.upstream_tag = SectionTag::kULeaf;
      own.rules_tag = SectionTag::kLeafRules;
      out.rule_ports_ = topo_->leaf_down_ports();
      break;
    case topo::Layer::kSpine:
      own.upstream_tag = SectionTag::kUSpine;
      own.rules_tag = SectionTag::kSpineRules;
      out.rule_ports_ = topo_->spine_down_ports();
      break;
    case topo::Layer::kCore:
      own.decode_core = true;
      out.rule_ports_ = 0;
      break;
    case topo::Layer::kHost:
      out.rule_ports_ = 0;
      break;
  }
  walk(*topo_, data, own);
}

void SectionIndex::lookup(std::uint32_t match_id, LayerParse& out) const {
  out.upstream = upstream_;
  out.default_rule = default_rule_;
  out.core_bitmap = core_bitmap_;
  out.sections = sections_;
  // The first id in header order belongs to the first p-rule naming
  // match_id: the parser keeps the first match.
  const auto it = std::find(ids_.begin(), ids_.end(), match_id);
  if (it == ids_.end()) {
    out.matched.reset();
    out.matched_index = -1;
    out.matched_shared = false;
    return;
  }
  const auto& ref = refs_[static_cast<std::size_t>(it - ids_.begin())];
  net::BitReader in{data_};
  in.skip(ref.bitmap_bit);
  out.matched = read_bitmap(in, rule_ports_);
  out.matched_index = static_cast<int>(ref.rule);
  out.matched_shared = ref.shared;
}

void HeaderCodec::parse_layer(std::span<const std::uint8_t> data,
                              topo::Layer layer, std::uint32_t match_id,
                              LayerParse& out) const {
  SectionIndex index;
  index_layer(data, layer, index);
  index.lookup(match_id, out);
}

std::vector<SectionExtent> HeaderCodec::scan_sections(
    std::span<const std::uint8_t> data) const {
  struct Extents : SkipAll {
    std::vector<SectionExtent> list;
    void extent(const SectionExtent& e) { list.push_back(e); }
  } extents;
  walk(*topo_, data, extents);
  return std::move(extents.list);
}

std::size_t HeaderCodec::header_length(
    std::span<const std::uint8_t> data) const {
  SkipAll nothing;
  return walk(*topo_, data, nothing);
}

std::size_t HeaderCodec::max_header_bytes(std::size_t hmax_spine,
                                          std::size_t hmax_leaf,
                                          std::size_t kmax_spine,
                                          std::size_t kmax_leaf) const {
  const auto& t = *topo_;
  if (kmax_spine == 0) kmax_spine = t.num_pods();
  auto rule_bits = [&](std::size_t ports, unsigned id_bits, std::size_t k) {
    return ports + k * (id_bits + 1);
  };
  std::size_t bits = 0;
  bits += section_bits(1 + t.leaf_up_ports() + t.leaf_down_ports());   // U_LEAF
  bits += section_bits(1 + t.spine_up_ports() + t.spine_down_ports()); // U_SPINE
  bits += section_bits(t.core_ports());                                // CORE
  bits += section_bits(1 + kCountBits +
                       hmax_spine * rule_bits(t.spine_down_ports(),
                                              t.pod_id_bits(), kmax_spine) +
                       t.spine_down_ports());  // spine layer + default
  bits += section_bits(1 + kCountBits +
                       hmax_leaf * rule_bits(t.leaf_down_ports(),
                                             t.leaf_id_bits(), kmax_leaf) +
                       t.leaf_down_ports());   // leaf layer + default
  bits += section_bits(0);                     // END
  return bits / 8;
}

std::size_t HeaderCodec::derive_hmax_leaf(const EncoderConfig& cfg) const {
  if (cfg.hmax_leaf_override > 0) {
    return std::min(cfg.hmax_leaf_override, kMaxRulesPerLayer);
  }
  const std::size_t budget = cfg.header_budget_bytes;
  std::size_t hmax = 1;
  while (hmax < kMaxRulesPerLayer &&
         max_header_bytes(cfg.hmax_spine, hmax + 1, cfg.kmax_spine,
                          cfg.kmax) <= budget) {
    ++hmax;
  }
  return hmax;
}

}  // namespace elmo
