#include "dataplane/hypervisor_switch.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/provenance.h"

namespace elmo::dp {

void HypervisorSwitch::install_flow(net::Ipv4Address group, GroupFlow flow) {
  flows_.insert_or_assign(group.value, std::move(flow));
}

void HypervisorSwitch::remove_flow(net::Ipv4Address group) {
  flows_.erase(group.value);
}

std::optional<net::Packet> HypervisorSwitch::encapsulate(
    net::Ipv4Address group, std::span<const std::uint8_t> payload) {
  const auto* found = flows_.find(group.value);
  if (found == nullptr) return std::nullopt;
  const auto& flow = *found;

  constexpr std::size_t kMaxDatagram = 0xFFFF;  // IPv4 total_length
  const std::size_t udp_length = net::UdpHeader::kSize +
                                 net::VxlanHeader::kSize +
                                 flow.elmo_header.size() + payload.size();
  const std::size_t datagram = net::Ipv4Header::kSize + udp_length;
  if (datagram > kMaxDatagram) {
    throw std::length_error{"HypervisorSwitch::encapsulate: IPv4 datagram of " +
                            std::to_string(datagram) +
                            " bytes exceeds 65535"};
  }

  net::EthernetHeader eth;
  eth.src = host_mac(host_);
  eth.dst = fabric_mac();

  net::Ipv4Header ip;
  ip.src = host_address(host_);
  ip.dst = group;
  ip.total_length = static_cast<std::uint16_t>(datagram);

  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(0xc000 | (host_ & 0x3fff));
  udp.length = static_cast<std::uint16_t>(udp_length);

  net::VxlanHeader vxlan;
  vxlan.vni = flow.vni;
  vxlan.elmo_present = !flow.elmo_header.empty();

  // The full outer header, Elmo template included, is written once straight
  // into the packet's headroom — the "one header, one write" fast path.
  net::Packet packet{payload};
  const auto header =
      packet.prepend(net::kOuterHeaderBytes + flow.elmo_header.size());
  constexpr std::size_t kIpAt = net::EthernetHeader::kSize;
  constexpr std::size_t kUdpAt = kIpAt + net::Ipv4Header::kSize;
  constexpr std::size_t kVxlanAt = kUdpAt + net::UdpHeader::kSize;
  eth.write(header.first<net::EthernetHeader::kSize>());
  ip.write(header.subspan<kIpAt, net::Ipv4Header::kSize>());
  udp.write(header.subspan<kUdpAt, net::UdpHeader::kSize>());
  vxlan.write(header.subspan<kVxlanAt, net::VxlanHeader::kSize>());
  std::copy(flow.elmo_header.begin(), flow.elmo_header.end(),
            header.begin() + net::kOuterHeaderBytes);
  ++stats_.sent;
  stats_.bytes_sent += packet.size();
  return packet;
}

std::span<Emission> HypervisorSwitch::process(const net::PacketView& packet,
                                              EmissionArena& arena,
                                              obs::HopDecision* decision) {
  const auto mark = arena.mark();
  ++stats_.received;
  stats_.bytes_received += packet.size();
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto ip =
      net::Ipv4Header::parse(outer.subspan(net::EthernetHeader::kSize));
  // The slot summary answers the common case without loading the flow: a
  // miss reads as 0, which discards like a flow with no local VM.
  const std::uint64_t summary = flows_.find_summary(ip.dst.value).value_or(0);
  const auto vm_count = static_cast<std::uint32_t>(summary >> 32);
  if (vm_count == 0) {
    ++stats_.discarded;
    if (decision != nullptr) decision->rule = obs::RuleClass::kHostDiscard;
    return arena.since(mark);
  }
  // Elmo-capable leaves strip all p-rules at egress; behind a legacy leaf
  // (§7) the header survives and the VXLAN flag tells us to skip it.
  const auto vxlan = net::VxlanHeader::parse(
      outer.subspan(net::EthernetHeader::kSize + net::Ipv4Header::kSize +
                    net::UdpHeader::kSize));
  std::size_t elmo_bytes = 0;
  if (vxlan.elmo_present) {
    elmo_bytes = codec_.header_length(packet.from(net::kOuterHeaderBytes));
  }
  // Decapsulation is a cursor advance: one payload view, shared per VM.
  net::PacketView payload = packet;
  payload.pop_front(net::kOuterHeaderBytes + elmo_bytes);
  if (vm_count == 1) {
    arena.emit(static_cast<std::uint32_t>(summary), payload);
  } else {
    // Co-located members (P > 1): only these hosts load the flow entry.
    for (const auto vm : flows_.find(ip.dst.value)->local_vms) {
      arena.emit(vm, payload);
    }
  }
  stats_.delivered_to_vms += vm_count;
  stats_.delivered_bytes += std::uint64_t{vm_count} * payload.size();
  const auto out = arena.since(mark);
  if (decision != nullptr) {
    decision->rule = obs::RuleClass::kHostDeliver;
    decision->vm_deliveries = vm_count;
    decision->popped_bytes = net::kOuterHeaderBytes + elmo_bytes;
  }
  return out;
}

}  // namespace elmo::dp
