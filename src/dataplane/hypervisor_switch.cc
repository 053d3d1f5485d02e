#include "dataplane/hypervisor_switch.h"

#include <cstring>

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

  // Build the full outer header (including the Elmo template) once, then
  // prepend with a single copy — the "one header, one write" fast path.
  net::EthernetHeader eth;
  eth.src = host_mac(host_);
  eth.dst = fabric_mac();

  net::Ipv4Header ip;
  ip.src = host_address(host_);
  ip.dst = group;
  ip.total_length = static_cast<std::uint16_t>(
      net::Ipv4Header::kSize + net::UdpHeader::kSize + net::VxlanHeader::kSize +
      flow.elmo_header.size() + payload.size());

  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(0xc000 | (host_ & 0x3fff));
  udp.length = static_cast<std::uint16_t>(
      net::UdpHeader::kSize + net::VxlanHeader::kSize +
      flow.elmo_header.size() + payload.size());

  net::VxlanHeader vxlan;
  vxlan.vni = flow.vni;
  vxlan.elmo_present = !flow.elmo_header.empty();

  std::vector<std::uint8_t> header;
  header.reserve(net::kOuterHeaderBytes + flow.elmo_header.size());
  for (const auto& part :
       {eth.serialize(), ip.serialize(), udp.serialize(), vxlan.serialize()}) {
    header.insert(header.end(), part.begin(), part.end());
  }
  header.insert(header.end(), flow.elmo_header.begin(),
                flow.elmo_header.end());

  net::Packet packet{payload};
  packet.push_front(header);
  ++stats_.sent;
  stats_.bytes_sent += packet.size();
  return packet;
}

std::span<Emission> HypervisorSwitch::process(const net::PacketView& packet,
                                              EmissionArena& arena) {
  const auto mark = arena.mark();
  ++stats_.received;
  stats_.bytes_received += packet.size();
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto ip =
      net::Ipv4Header::parse(outer.subspan(net::EthernetHeader::kSize));
  const auto* flow = flows_.find(ip.dst.value);
  if (flow == nullptr || flow->local_vms.empty()) {
    ++stats_.discarded;
    if (prov_ != nullptr) {
      obs::HopDecision dec;
      dec.rule = obs::RuleClass::kHostDiscard;
      prov_->record_decision(dec);
    }
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
  for (const auto vm : flow->local_vms) {
    arena.emit(vm, payload);
    ++stats_.delivered_to_vms;
    stats_.delivered_bytes += payload.size();
  }
  const auto out = arena.since(mark);
  if (prov_ != nullptr) {
    obs::HopDecision dec;
    dec.rule = obs::RuleClass::kHostDeliver;
    dec.vm_deliveries = static_cast<std::uint32_t>(out.size());
    dec.popped_bytes = net::kOuterHeaderBytes + elmo_bytes;
    prov_->record_decision(dec);
  }
  return out;
}

std::vector<HypervisorSwitch::Delivery> HypervisorSwitch::receive(
    const net::Packet& packet) {
  compat_arena_.clear();
  const net::PacketView view{packet.bytes()};
  const auto emissions = process(view, compat_arena_);
  std::vector<Delivery> deliveries;
  deliveries.reserve(emissions.size());
  for (const auto& e : emissions) {
    deliveries.push_back(Delivery{static_cast<std::uint32_t>(e.out_port),
                                  e.packet.size()});
  }
  compat_arena_.clear();
  return deliveries;
}

}  // namespace elmo::dp
