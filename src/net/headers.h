// Outer protocol headers used to tunnel Elmo packets.
//
// Elmo rides over VXLAN (outer Ethernet + IPv4 + UDP + VXLAN), so traffic
// accounting must include real outer-header bytes. These codecs are
// byte-exact, with a correct IPv4 header checksum.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace elmo::net {

using MacAddress = std::array<std::uint8_t, 6>;

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint16_t kVxlanUdpPort = 4789;
constexpr std::uint8_t kIpProtoUdp = 17;

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddress dst{};
  MacAddress src{};
  std::uint16_t ether_type = kEtherTypeIpv4;

  // Writes the header's wire bytes into `out`.
  void write(std::span<std::uint8_t, kSize> out) const;
  static EthernetHeader parse(std::span<const std::uint8_t> data);
};

// IPv4 addresses are kept as host-order u32; 224.0.0.0/4 is multicast.
struct Ipv4Address {
  std::uint32_t value = 0;

  constexpr bool is_multicast() const noexcept {
    return (value & 0xf0000000u) == 0xe0000000u;
  }
  std::string to_string() const;
  static Ipv4Address from_string(const std::string& dotted);
  static constexpr Ipv4Address multicast_group(std::uint32_t group_index) {
    // Administratively-scoped block 239.0.0.0/8 gives 2^24 tenant-visible
    // group addresses; larger indices roll into 232/8 (SSM) then 235/8 so a
    // million-group simulation never aliases.
    const std::uint32_t block = group_index >> 24;
    const std::uint32_t low = group_index & 0x00ffffffu;
    constexpr std::uint32_t bases[] = {0xef000000u, 0xe8000000u, 0xeb000000u,
                                       0xe5000000u};
    return Ipv4Address{bases[block & 3] | low};
  }
  auto operator<=>(const Ipv4Address&) const = default;
};

struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // no options

  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // includes this header
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoUdp;
  Ipv4Address src{};
  Ipv4Address dst{};

  void write(std::span<std::uint8_t, kSize> out) const;
  static Ipv4Header parse(std::span<const std::uint8_t> data);

  static std::uint16_t checksum(std::span<const std::uint8_t> header);
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = kVxlanUdpPort;
  std::uint16_t length = 0;  // header + payload

  void write(std::span<std::uint8_t, kSize> out) const;
  static UdpHeader parse(std::span<const std::uint8_t> data);
};

// VXLAN (RFC 7348): flags byte with the I bit, 24-bit VNI. We use one
// reserved flag bit (0x01) as the "Elmo header present" indicator so
// receivers behind legacy switches (which cannot strip p-rules at egress,
// paper §7) can skip the source-routing header when decapsulating.
struct VxlanHeader {
  static constexpr std::size_t kSize = 8;

  std::uint32_t vni = 0;    // 24 bits used; identifies the tenant
  bool elmo_present = false;  // reserved-bit 0x01

  void write(std::span<std::uint8_t, kSize> out) const;
  static VxlanHeader parse(std::span<const std::uint8_t> data);
};

// Total outer encapsulation in front of the Elmo header.
constexpr std::size_t kOuterHeaderBytes = EthernetHeader::kSize +
                                          Ipv4Header::kSize + UdpHeader::kSize +
                                          VxlanHeader::kSize;

}  // namespace elmo::net
