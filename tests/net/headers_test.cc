#include "net/headers.h"

#include <gtest/gtest.h>

#include <array>
#include <set>

namespace elmo::net {
namespace {

TEST(Ethernet, RoundTrip) {
  EthernetHeader h;
  h.dst = {1, 2, 3, 4, 5, 6};
  h.src = {7, 8, 9, 10, 11, 12};
  h.ether_type = kEtherTypeIpv4;
  std::array<std::uint8_t, EthernetHeader::kSize> bytes{};
  h.write(bytes);
  const auto parsed = EthernetHeader::parse(bytes);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.ether_type, h.ether_type);
}

TEST(Ethernet, TruncatedThrows) {
  const std::vector<std::uint8_t> runt(13, 0);
  EXPECT_THROW(EthernetHeader::parse(runt), std::out_of_range);
}

TEST(Ipv4Address, StringConversion) {
  const auto a = Ipv4Address::from_string("239.1.2.3");
  EXPECT_EQ(a.value, 0xef010203u);
  EXPECT_EQ(a.to_string(), "239.1.2.3");
  EXPECT_THROW(Ipv4Address::from_string("1.2.3.999"), std::invalid_argument);
}

TEST(Ipv4Address, MulticastRange) {
  EXPECT_TRUE(Ipv4Address::from_string("224.0.0.1").is_multicast());
  EXPECT_TRUE(Ipv4Address::from_string("239.255.255.255").is_multicast());
  EXPECT_FALSE(Ipv4Address::from_string("223.255.255.255").is_multicast());
  EXPECT_FALSE(Ipv4Address::from_string("10.0.0.1").is_multicast());
}

TEST(Ipv4Address, GroupAddressesAreMulticastAndUnique) {
  std::set<std::uint32_t> seen;
  for (std::uint32_t g = 0; g < 100'000; g += 97) {
    const auto a = Ipv4Address::multicast_group(g);
    EXPECT_TRUE(a.is_multicast()) << a.to_string();
    EXPECT_TRUE(seen.insert(a.value).second) << "collision at " << g;
  }
  // Distinct across the 16M-boundary roll-over too.
  EXPECT_NE(Ipv4Address::multicast_group(0).value,
            Ipv4Address::multicast_group(1u << 24).value);
}

TEST(Ipv4, RoundTripAndChecksum) {
  Ipv4Header h;
  h.src = Ipv4Address::from_string("10.0.0.1");
  h.dst = Ipv4Address::from_string("239.0.0.5");
  h.total_length = 1234;
  h.ttl = 17;
  std::array<std::uint8_t, Ipv4Header::kSize> bytes{};
  h.write(bytes);
  // Checksum over the serialized header (including the stored checksum)
  // must be zero-sum, i.e. recomputing yields 0.
  EXPECT_EQ(Ipv4Header::checksum(bytes), 0);
  const auto parsed = Ipv4Header::parse(bytes);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.total_length, 1234);
  EXPECT_EQ(parsed.ttl, 17);
  EXPECT_EQ(parsed.protocol, kIpProtoUdp);
}

TEST(Ipv4, RejectsNonIpv4) {
  std::vector<std::uint8_t> bytes(20, 0);
  bytes[0] = 0x65;  // version 6
  EXPECT_THROW(Ipv4Header::parse(bytes), std::invalid_argument);
}

TEST(Udp, RoundTrip) {
  UdpHeader h;
  h.src_port = 49152;
  h.dst_port = kVxlanUdpPort;
  h.length = 77;
  std::array<std::uint8_t, UdpHeader::kSize> bytes{};
  h.write(bytes);
  const auto parsed = UdpHeader::parse(bytes);
  EXPECT_EQ(parsed.src_port, h.src_port);
  EXPECT_EQ(parsed.dst_port, kVxlanUdpPort);
  EXPECT_EQ(parsed.length, 77);
}

TEST(Vxlan, RoundTripVni) {
  VxlanHeader h;
  h.vni = 0x00abcdef;
  std::array<std::uint8_t, VxlanHeader::kSize> bytes{};
  h.write(bytes);
  EXPECT_EQ(VxlanHeader::parse(bytes).vni, 0x00abcdefu);
}

TEST(Vxlan, RejectsMissingIFlag) {
  std::vector<std::uint8_t> bytes(8, 0);
  EXPECT_THROW(VxlanHeader::parse(bytes), std::invalid_argument);
}

TEST(OuterHeaders, TotalSizeIsFifty) {
  EXPECT_EQ(kOuterHeaderBytes, 50u);
}

}  // namespace
}  // namespace elmo::net
