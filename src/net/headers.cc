#include "net/headers.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace elmo::net {
namespace {

void put_u16(std::span<std::uint8_t> out, std::size_t at, std::uint16_t v) {
  out[at] = static_cast<std::uint8_t>(v >> 8);
  out[at + 1] = static_cast<std::uint8_t>(v & 0xff);
}

void put_u32(std::span<std::uint8_t> out, std::size_t at, std::uint32_t v) {
  put_u16(out, at, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, at + 2, static_cast<std::uint16_t>(v & 0xffff));
}

std::uint16_t get_u16(std::span<const std::uint8_t> data, std::size_t at) {
  return static_cast<std::uint16_t>((data[at] << 8) | data[at + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> data, std::size_t at) {
  return (static_cast<std::uint32_t>(get_u16(data, at)) << 16) |
         get_u16(data, at + 2);
}

void require_size(std::span<const std::uint8_t> data, std::size_t need,
                  const char* what) {
  if (data.size() < need) {
    throw std::out_of_range{std::string{"truncated "} + what};
  }
}

}  // namespace

void EthernetHeader::write(std::span<std::uint8_t, kSize> out) const {
  std::copy(dst.begin(), dst.end(), out.begin());
  std::copy(src.begin(), src.end(), out.begin() + 6);
  put_u16(out, 12, ether_type);
}

EthernetHeader EthernetHeader::parse(std::span<const std::uint8_t> data) {
  require_size(data, kSize, "Ethernet header");
  EthernetHeader h;
  std::copy(data.begin(), data.begin() + 6, h.dst.begin());
  std::copy(data.begin() + 6, data.begin() + 12, h.src.begin());
  h.ether_type = get_u16(data, 12);
  return h;
}

std::string Ipv4Address::to_string() const {
  std::ostringstream out;
  out << ((value >> 24) & 0xff) << '.' << ((value >> 16) & 0xff) << '.'
      << ((value >> 8) & 0xff) << '.' << (value & 0xff);
  return out.str();
}

Ipv4Address Ipv4Address::from_string(const std::string& dotted) {
  std::istringstream in{dotted};
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned octet = 0;
    char dot = 0;
    if (!(in >> octet) || octet > 255 || (i < 3 && !(in >> dot) && true) ||
        (i < 3 && dot != '.')) {
      throw std::invalid_argument{"bad IPv4 address: " + dotted};
    }
    value = (value << 8) | octet;
  }
  return Ipv4Address{value};
}

std::uint16_t Ipv4Header::checksum(std::span<const std::uint8_t> header) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < header.size(); i += 2) {
    sum += get_u16(header, i);
  }
  if (header.size() % 2 != 0) {
    sum += static_cast<std::uint32_t>(header.back()) << 8;
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

void Ipv4Header::write(std::span<std::uint8_t, kSize> out) const {
  out[0] = 0x45;  // version 4, IHL 5
  out[1] = dscp;
  put_u16(out, 2, total_length);
  put_u16(out, 4, 0);       // identification
  put_u16(out, 6, 0x4000);  // flags: don't fragment
  out[8] = ttl;
  out[9] = protocol;
  put_u16(out, 10, 0);  // checksum placeholder
  put_u32(out, 12, src.value);
  put_u32(out, 16, dst.value);
  put_u16(out, 10, checksum(out));
}

Ipv4Header Ipv4Header::parse(std::span<const std::uint8_t> data) {
  require_size(data, kSize, "IPv4 header");
  if ((data[0] >> 4) != 4) throw std::invalid_argument{"not IPv4"};
  Ipv4Header h;
  h.dscp = data[1];
  h.total_length = get_u16(data, 2);
  h.ttl = data[8];
  h.protocol = data[9];
  h.src.value = get_u32(data, 12);
  h.dst.value = get_u32(data, 16);
  return h;
}

void UdpHeader::write(std::span<std::uint8_t, kSize> out) const {
  put_u16(out, 0, src_port);
  put_u16(out, 2, dst_port);
  put_u16(out, 4, length);
  put_u16(out, 6, 0);  // checksum optional over IPv4
}

UdpHeader UdpHeader::parse(std::span<const std::uint8_t> data) {
  require_size(data, kSize, "UDP header");
  UdpHeader h;
  h.src_port = get_u16(data, 0);
  h.dst_port = get_u16(data, 2);
  h.length = get_u16(data, 4);
  return h;
}

void VxlanHeader::write(std::span<std::uint8_t, kSize> out) const {
  out[0] = static_cast<std::uint8_t>(0x08 | (elmo_present ? 0x01 : 0));
  out[1] = 0;
  out[2] = 0;
  out[3] = 0;
  put_u32(out, 4, (vni & 0x00ffffffu) << 8);
}

VxlanHeader VxlanHeader::parse(std::span<const std::uint8_t> data) {
  require_size(data, kSize, "VXLAN header");
  if ((data[0] & 0x08) == 0) {
    throw std::invalid_argument{"VXLAN I flag not set"};
  }
  VxlanHeader h;
  h.vni = get_u32(data, 4) >> 8;
  h.elmo_present = (data[0] & 0x01) != 0;
  return h;
}

}  // namespace elmo::net
