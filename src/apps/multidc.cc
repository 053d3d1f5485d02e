#include "apps/multidc.h"

#include <array>
#include <stdexcept>

#include "elmo/stream.h"

namespace elmo::apps {

MultiDcGroup::MultiDcGroup(
    std::vector<Datacenter> dcs, std::uint32_t tenant,
    const std::vector<std::vector<topo::HostId>>& members_per_dc)
    : dcs_{std::move(dcs)}, members_{members_per_dc} {
  if (dcs_.size() != members_.size()) {
    throw std::invalid_argument{"MultiDcGroup: dcs/members size mismatch"};
  }
  groups_.assign(dcs_.size(), kInvalid);
  relays_.assign(dcs_.size(), 0);
  for (std::size_t d = 0; d < dcs_.size(); ++d) {
    if (members_[d].empty()) continue;
    std::vector<elmo::Member> members;
    std::uint32_t vm = 0;
    for (const auto host : members_[d]) {
      members.push_back(elmo::Member{host, vm++, elmo::MemberRole::kBoth});
    }
    groups_[d] = dcs_[d].controller->create_group(tenant, members);
    stream::ControlPlane{*dcs_[d].controller, *dcs_[d].fabric}.sync(
        std::array{groups_[d]});
    relays_[d] = members_[d].front();
  }
}

MultiDcGroup::~MultiDcGroup() {
  for (std::size_t d = 0; d < dcs_.size(); ++d) {
    if (groups_[d] == kInvalid) continue;
    dcs_[d].controller->remove_group(groups_[d]);
    stream::ControlPlane{*dcs_[d].controller, *dcs_[d].fabric}.sync(
        std::array{groups_[d]});
  }
}

MultiDcGroup::SendReport MultiDcGroup::send(std::size_t src_dc,
                                            topo::HostId src,
                                            std::size_t payload_bytes) {
  SendReport report;

  // Local multicast in the source DC.
  if (groups_.at(src_dc) != kInvalid) {
    const auto& controller = *dcs_[src_dc].controller;
    const auto result = dcs_[src_dc].fabric->send(
        src, controller.group(groups_[src_dc]).address, payload_bytes);
    report.intra_dc_wire_bytes += result.total_wire_bytes;
    for (const auto& [host, copies] : result.host_copies) {
      (void)copies;
      if (host != src) ++report.hosts_reached;
    }
  }

  // One WAN unicast per remote DC with members; the relay re-multicasts.
  for (std::size_t d = 0; d < dcs_.size(); ++d) {
    if (d == src_dc || groups_[d] == kInvalid) continue;
    ++report.wan_unicasts;
    report.wan_wire_bytes += net::kOuterHeaderBytes + payload_bytes;

    const auto relay = relays_[d];
    const auto& controller = *dcs_[d].controller;
    const auto result = dcs_[d].fabric->send(
        relay, controller.group(groups_[d]).address, payload_bytes);
    report.intra_dc_wire_bytes += result.total_wire_bytes;
    ++report.hosts_reached;  // the relay itself received the WAN copy
    for (const auto& [host, copies] : result.host_copies) {
      (void)copies;
      if (host != relay) ++report.hosts_reached;
    }
  }
  return report;
}

}  // namespace elmo::apps
