#include "p4rt/runtime.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace elmo::p4rt {
namespace {

constexpr std::uint32_t kMagic = 0x5034454c;  // "P4EL"
constexpr std::size_t kU16Max = 0xffff;
constexpr std::size_t kU32Max = 0xffffffff;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}
// Count field: u16 in standard frames, u32 in extended frames. Returns false
// when `v` does not fit a standard frame's u16 (the caller re-encodes the
// message extended); throws std::length_error beyond an extended frame's u32.
bool put_count(std::vector<std::uint8_t>& out, std::size_t v, bool extended) {
  if (extended) {
    if (v > kU32Max) throw std::length_error{"p4rt: count exceeds u32"};
    put_u32(out, static_cast<std::uint32_t>(v));
  } else {
    if (v > kU16Max) return false;
    put_u16(out, static_cast<std::uint16_t>(v));
  }
  return true;
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_{data} {}
  std::uint8_t u8() {
    need(1);
    return data_[at_++];
  }
  std::uint16_t u16() {
    need(2);
    const auto v = static_cast<std::uint16_t>((data_[at_] << 8) |
                                              data_[at_ + 1]);
    at_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const auto hi = u16();
    return (static_cast<std::uint32_t>(hi) << 16) | u16();
  }
  std::uint32_t count(bool extended) { return extended ? u32() : u16(); }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const auto view = data_.subspan(at_, n);
    at_ += n;
    return view;
  }
  bool done() const noexcept { return at_ == data_.size(); }
  std::size_t position() const noexcept { return at_; }
  std::size_t remaining() const noexcept { return data_.size() - at_; }

 private:
  void need(std::size_t n) {
    if (at_ + n > data_.size()) {
      throw std::invalid_argument{"p4rt: truncated message"};
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t at_ = 0;
};

std::size_t bitmap_bytes(std::size_t ports) { return (ports + 7) / 8; }

bool encode_bitmap(std::vector<std::uint8_t>& out, const net::PortBitmap& ports,
                   bool extended) {
  if (!put_count(out, ports.size(), extended)) return false;
  std::uint8_t byte = 0;
  for (std::size_t p = 0; p < ports.size(); ++p) {
    if (ports.test(p)) byte |= static_cast<std::uint8_t>(1u << (p % 8));
    if (p % 8 == 7 || p + 1 == ports.size()) {
      out.push_back(byte);
      byte = 0;
    }
  }
  return true;
}

net::PortBitmap decode_bitmap(Reader& in, bool extended) {
  const std::size_t size = in.count(extended);
  // Validate the advertised width against the actual payload BEFORE sizing
  // the bitmap, so a hostile count cannot trigger a huge allocation.
  if (bitmap_bytes(size) > in.remaining()) {
    throw std::invalid_argument{"p4rt: truncated message"};
  }
  net::PortBitmap ports{size};
  const auto bytes = in.bytes(bitmap_bytes(size));
  for (std::size_t p = 0; p < size; ++p) {
    if ((bytes[p / 8] >> (p % 8)) & 1) ports.set(p);
  }
  return ports;
}

// Appends the message body of `u` to `body` with counts of the frame's
// width. Returns false, leaving `body` partly written, when a count does not
// fit a standard frame.
bool put_body(std::vector<std::uint8_t>& body, const Update& u,
              bool extended) {
  switch (u.kind) {
    case UpdateKind::kHypervisorFlowAdd:
      put_u32(body, u.host);
      put_u32(body, u.group.value);
      put_u32(body, u.vni);
      if (!put_count(body, u.local_vms.size(), extended)) return false;
      for (const auto vm : u.local_vms) put_u32(body, vm);
      if (!put_count(body, u.elmo_header.size(), extended)) return false;
      body.insert(body.end(), u.elmo_header.begin(), u.elmo_header.end());
      return true;
    case UpdateKind::kHypervisorFlowDel:
      put_u32(body, u.host);
      put_u32(body, u.group.value);
      return true;
    case UpdateKind::kSRuleAdd:
      body.push_back(static_cast<std::uint8_t>(u.layer));
      put_u32(body, u.switch_id);
      put_u32(body, u.group.value);
      return encode_bitmap(body, u.ports, extended);
    case UpdateKind::kSRuleDel:
      body.push_back(static_cast<std::uint8_t>(u.layer));
      put_u32(body, u.switch_id);
      put_u32(body, u.group.value);
      return true;
  }
  throw std::invalid_argument{"p4rt: unknown update kind"};
}

}  // namespace

std::vector<Update> compile(const Controller& controller, elmo::GroupId group,
                            const RuleSlots* slots) {
  const auto& g = controller.group(group);
  const auto& t = controller.topology();
  const std::size_t planes = t.params().spines_per_pod;
  auto rule = [&](UpdateKind kind) {
    Update u;
    u.kind = kind;
    u.group = g.address;
    return u;
  };
  auto named = [slots](topo::Layer layer, std::uint32_t id) {
    return slots == nullptr ||
           std::binary_search(slots->srules.begin(), slots->srules.end(),
                              std::pair{layer, id});
  };

  // The hosts whose flow is compiled, ascending: the filter's, else every
  // member host. A filtered host with no member left compiles no flow.
  std::vector<topo::HostId> member_hosts;
  if (slots == nullptr) {
    member_hosts.reserve(g.members.size());
    for (const auto& member : g.members) member_hosts.push_back(member.host);
    std::sort(member_hosts.begin(), member_hosts.end());
    member_hosts.erase(std::unique(member_hosts.begin(), member_hosts.end()),
                       member_hosts.end());
  }
  const std::span<const topo::HostId> hosts =
      slots == nullptr ? std::span<const topo::HostId>{member_hosts}
                       : std::span<const topo::HostId>{slots->hosts};

  // Every sender's header ends with the same tail; it is serialized at the
  // first sender and spliced into the rest. Its upstream rules route around
  // the failures on the group's plane (multipath when there are none).
  const auto& codec = controller.encoder().codec();
  std::vector<std::uint8_t> shared_tail;
  const auto& failures = controller.route_failures(group);

  // updates[i] is the flow of hosts[i], built once some member lives there.
  std::vector<Update> updates;
  updates.reserve(hosts.size() + g.encoding.leaf.s_rules.size() +
                  g.encoding.spine.s_rules.size() * planes);
  updates.resize(hosts.size());
  std::vector<bool> built(hosts.size(), false);
  for (const auto& member : g.members) {
    const auto at = std::lower_bound(hosts.begin(), hosts.end(), member.host);
    if (at == hosts.end() || *at != member.host) continue;
    const auto i = static_cast<std::size_t>(at - hosts.begin());
    auto& u = updates[i];
    if (!built[i]) {
      built[i] = true;
      u = rule(UpdateKind::kHypervisorFlowAdd);
      u.host = member.host;
      u.vni = g.tenant;
    }
    if (can_receive(member.role)) u.local_vms.push_back(member.vm);
    if (can_send(member.role) && u.elmo_header.empty()) {
      if (shared_tail.empty()) shared_tail = codec.serialize_shared(g.encoding);
      const auto route = g.tree->sender_route(member.host, failures);
      u.elmo_header = codec.serialize(route.encoding, shared_tail);
    }
  }

  // Close the gaps of filtered hosts no member lives on.
  std::size_t flows = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (!built[i]) continue;
    if (flows != i) updates[flows] = std::move(updates[i]);
    ++flows;
  }
  updates.resize(flows);
  for (const auto& [leaf, bitmap] : g.encoding.leaf.s_rules) {
    if (!named(topo::Layer::kLeaf, leaf)) continue;
    auto& u = updates.emplace_back(rule(UpdateKind::kSRuleAdd));
    u.layer = topo::Layer::kLeaf;
    u.switch_id = leaf;
    u.ports = bitmap;
  }
  for (const auto& [pod, bitmap] : g.encoding.spine.s_rules) {
    for (std::size_t plane = 0; plane < planes; ++plane) {
      const auto spine = t.spine_at(pod, plane);
      if (!named(topo::Layer::kSpine, spine)) continue;
      auto& u = updates.emplace_back(rule(UpdateKind::kSRuleAdd));
      u.layer = topo::Layer::kSpine;
      u.switch_id = spine;
      u.ports = bitmap;
    }
  }
  return updates;
}

std::vector<Update> compile_install(const Controller& controller,
                                    elmo::GroupId group) {
  return compile(controller, group, /*slots=*/nullptr);
}

std::vector<std::uint8_t> encode(std::span<const Update> updates) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, static_cast<std::uint32_t>(updates.size()));
  std::vector<std::uint8_t> body;
  for (const auto& u : updates) {
    // A standard frame unless a count or the body outgrows its u16 fields.
    body.clear();
    const bool extended = !put_body(body, u, /*extended=*/false) ||
                          body.size() > kU16Max;
    if (extended) {
      body.clear();
      put_body(body, u, /*extended=*/true);
      if (body.size() > kU32Max) {
        throw std::length_error{"p4rt: message too large"};
      }
    }
    out.push_back(static_cast<std::uint8_t>(u.kind) |
                  (extended ? kExtendedFrameBit : 0));
    if (extended) {
      put_u32(out, static_cast<std::uint32_t>(body.size()));
    } else {
      put_u16(out, static_cast<std::uint16_t>(body.size()));
    }
    out.insert(out.end(), body.begin(), body.end());
  }
  return out;
}

std::vector<Update> decode(std::span<const std::uint8_t> wire) {
  Reader in{wire};
  if (in.u32() != kMagic) throw std::invalid_argument{"p4rt: bad magic"};
  const auto count = in.u32();
  // Every message occupies at least 3 bytes (kind + u16 length), so an
  // advertised count beyond remaining/3 cannot be honest; reject it before
  // reserving storage for it.
  if (count > in.remaining() / 3) {
    throw std::invalid_argument{"p4rt: implausible batch count"};
  }
  std::vector<Update> updates;
  updates.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto wire_kind = in.u8();
    const bool extended = (wire_kind & kExtendedFrameBit) != 0;
    const auto kind = static_cast<std::uint8_t>(wire_kind & ~kExtendedFrameBit);
    const std::size_t length = extended ? in.u32() : in.u16();
    if (length > in.remaining()) {
      throw std::invalid_argument{"p4rt: truncated message"};
    }
    const auto body_start = in.position();
    Update u;
    switch (kind) {
      case 1: {
        u.kind = UpdateKind::kHypervisorFlowAdd;
        u.host = in.u32();
        u.group.value = in.u32();
        u.vni = in.u32();
        const std::uint32_t vm_count = in.count(extended);
        if (static_cast<std::size_t>(vm_count) * 4 > in.remaining()) {
          throw std::invalid_argument{"p4rt: truncated message"};
        }
        u.local_vms.reserve(vm_count);
        for (std::uint32_t v = 0; v < vm_count; ++v) {
          u.local_vms.push_back(in.u32());
        }
        const std::uint32_t header_len = in.count(extended);
        const auto view = in.bytes(header_len);
        u.elmo_header.assign(view.begin(), view.end());
        break;
      }
      case 2:
        u.kind = UpdateKind::kHypervisorFlowDel;
        u.host = in.u32();
        u.group.value = in.u32();
        break;
      case 3:
        u.kind = UpdateKind::kSRuleAdd;
        u.layer = static_cast<topo::Layer>(in.u8());
        u.switch_id = in.u32();
        u.group.value = in.u32();
        u.ports = decode_bitmap(in, extended);
        break;
      case 4:
        u.kind = UpdateKind::kSRuleDel;
        u.layer = static_cast<topo::Layer>(in.u8());
        u.switch_id = in.u32();
        u.group.value = in.u32();
        break;
      default:
        throw std::invalid_argument{"p4rt: unknown message kind"};
    }
    if (in.position() - body_start != length) {
      throw std::invalid_argument{"p4rt: length mismatch"};
    }
    updates.push_back(std::move(u));
  }
  if (!in.done()) throw std::invalid_argument{"p4rt: trailing bytes"};
  return updates;
}

}  // namespace elmo::p4rt
