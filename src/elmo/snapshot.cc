#include "elmo/snapshot.h"

#include <stdexcept>

namespace elmo {
namespace {

constexpr std::uint32_t kMagic = 0x454c4d4f;  // "ELMO"
constexpr std::uint16_t kVersion = 1;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_{data} {}

  std::uint16_t u16() {
    require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        (data_[at_] << 8) | data_[at_ + 1]);
    at_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const auto hi = u16();
    return (static_cast<std::uint32_t>(hi) << 16) | u16();
  }
  std::uint8_t u8() {
    require(1);
    return data_[at_++];
  }
  bool done() const noexcept { return at_ == data_.size(); }

 private:
  void require(std::size_t n) {
    if (at_ + n > data_.size()) {
      throw std::invalid_argument{"snapshot: truncated image"};
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t at_ = 0;
};

}  // namespace

std::vector<std::uint8_t> snapshot(const Controller& controller) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u16(out, kVersion);

  // Ids are assigned sequentially; gaps below the highest live id are
  // tombstones.
  const auto ids = controller.group_ids();
  const std::uint32_t id_limit = ids.empty() ? 0 : ids.back() + 1;

  put_u32(out, id_limit);
  for (std::uint32_t id = 0; id < id_limit; ++id) {
    if (!controller.has_group(id)) {
      out.push_back(0);  // tombstone
      continue;
    }
    out.push_back(1);
    const auto& g = controller.group(id);
    put_u32(out, g.tenant);
    put_u32(out, static_cast<std::uint32_t>(g.members.size()));
    for (const auto& m : g.members) {
      put_u32(out, m.host);
      put_u32(out, m.vm);
      out.push_back(static_cast<std::uint8_t>(m.role));
    }
  }
  return out;
}

void restore(Controller& controller, std::span<const std::uint8_t> image) {
  if (controller.num_groups() != 0) {
    throw std::logic_error{"restore: controller already has groups"};
  }
  Reader in{image};
  if (in.u32() != kMagic) {
    throw std::invalid_argument{"snapshot: bad magic"};
  }
  if (in.u16() != kVersion) {
    throw std::invalid_argument{"snapshot: unsupported version"};
  }
  const auto id_limit = in.u32();
  for (std::uint32_t id = 0; id < id_limit; ++id) {
    const auto live = in.u8();
    if (live == 0) {
      // Recreate the tombstone so later ids (and their multicast addresses)
      // line up with the original controller.
      const auto placeholder = controller.create_group(0, {});
      controller.remove_group(placeholder);
      continue;
    }
    if (live != 1) throw std::invalid_argument{"snapshot: bad record tag"};
    const auto tenant = in.u32();
    const auto member_count = in.u32();
    std::vector<Member> members;
    members.reserve(member_count);
    for (std::uint32_t m = 0; m < member_count; ++m) {
      Member member;
      member.host = in.u32();
      member.vm = in.u32();
      const auto role = in.u8();
      if (role > 2) throw std::invalid_argument{"snapshot: bad role"};
      member.role = static_cast<MemberRole>(role);
      members.push_back(member);
    }
    const auto new_id = controller.create_group(tenant, members);
    if (new_id != id) {
      throw std::logic_error{"restore: id drift (controller not fresh?)"};
    }
  }
  if (!in.done()) {
    throw std::invalid_argument{"snapshot: trailing bytes"};
  }
}

}  // namespace elmo
