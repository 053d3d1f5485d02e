#include "apps/igmp.h"

#include <algorithm>
#include <stdexcept>

namespace elmo::apps {

std::vector<std::uint8_t> IgmpMessage::serialize() const {
  std::vector<std::uint8_t> out(kSize, 0);
  out[0] = static_cast<std::uint8_t>(type);
  out[1] = max_response_time;
  out[4] = static_cast<std::uint8_t>(group.value >> 24);
  out[5] = static_cast<std::uint8_t>(group.value >> 16);
  out[6] = static_cast<std::uint8_t>(group.value >> 8);
  out[7] = static_cast<std::uint8_t>(group.value);
  const auto csum = net::Ipv4Header::checksum(out);
  out[2] = static_cast<std::uint8_t>(csum >> 8);
  out[3] = static_cast<std::uint8_t>(csum & 0xff);
  return out;
}

IgmpMessage IgmpMessage::parse(std::span<const std::uint8_t> data) {
  if (data.size() < kSize) {
    throw std::invalid_argument{"IGMP: truncated message"};
  }
  if (net::Ipv4Header::checksum(data.first(kSize)) != 0) {
    throw std::invalid_argument{"IGMP: bad checksum"};
  }
  IgmpMessage msg;
  switch (data[0]) {
    case 0x11:
      msg.type = Type::kMembershipQuery;
      break;
    case 0x16:
      msg.type = Type::kV2MembershipReport;
      break;
    case 0x17:
      msg.type = Type::kLeaveGroup;
      break;
    default:
      throw std::invalid_argument{"IGMP: unknown type"};
  }
  msg.max_response_time = data[1];
  msg.group.value = (static_cast<std::uint32_t>(data[4]) << 24) |
                    (static_cast<std::uint32_t>(data[5]) << 16) |
                    (static_cast<std::uint32_t>(data[6]) << 8) | data[7];
  return msg;
}

elmo::GroupId IgmpDirectory::group_for(net::Ipv4Address address) {
  if (const auto id = find(address)) return *id;
  // Lazily create the group; the tenant-chosen address is recorded in the
  // directory (the controller's internal address provides isolation, so
  // tenants can pick addresses independently of each other — paper Table 3,
  // "address-space isolation").
  const auto id = controller_->create_group(tenant_, {});
  groups_.insert_or_assign(address.value, id);
  return id;
}

bool IgmpAgent::in_group(elmo::GroupId id, std::uint32_t vm) const {
  const auto& members = directory_->controller().group(id).members;
  return std::any_of(members.begin(), members.end(), [&](const Member& m) {
    return m.host == host_ && m.vm == vm;
  });
}

bool IgmpAgent::handle_vm_message(std::uint32_t vm,
                                  std::span<const std::uint8_t> data) {
  IgmpMessage msg;
  try {
    msg = IgmpMessage::parse(data);
  } catch (const std::invalid_argument&) {
    ++stats_.bad_messages;
    return false;
  }
  if (!msg.group.is_multicast() &&
      msg.type != IgmpMessage::Type::kMembershipQuery) {
    ++stats_.bad_messages;
    return false;
  }

  switch (msg.type) {
    case IgmpMessage::Type::kV2MembershipReport: {
      ++stats_.reports;
      const auto id = directory_->group_for(msg.group);
      if (in_group(id, vm)) {
        ++stats_.duplicate_reports;  // IGMP retransmits; controller sees one
        return false;
      }
      directory_->controller().join(
          id, elmo::Member{host_, vm, elmo::MemberRole::kReceiver});
      return true;
    }
    case IgmpMessage::Type::kLeaveGroup: {
      ++stats_.leaves;
      const auto id = directory_->find(msg.group);
      if (!id || !in_group(*id, vm)) return false;  // not a member: ignore
      directory_->controller().leave(*id, host_, vm);
      return true;
    }
    case IgmpMessage::Type::kMembershipQuery:
      return false;  // queries come from us, not VMs
  }
  return false;
}

std::vector<std::uint8_t> IgmpAgent::general_query() const {
  IgmpMessage query;
  query.type = IgmpMessage::Type::kMembershipQuery;
  query.max_response_time = 100;  // 10 s
  query.group = net::Ipv4Address{0};
  return query.serialize();
}

bool IgmpAgent::is_member(std::uint32_t vm, net::Ipv4Address group) const {
  const auto id = directory_->find(group);
  return id && in_group(*id, vm);
}

}  // namespace elmo::apps
