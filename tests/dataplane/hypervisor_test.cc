#include "dataplane/hypervisor_switch.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dataplane/common.h"
#include "testutil.h"

namespace elmo::dp {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

TEST(HypervisorSwitch, EncapRequiresFlow) {
  const auto t = small();
  HypervisorSwitch hv{t, 3};
  const std::vector<std::uint8_t> payload{1, 2, 3};
  EXPECT_FALSE(hv.encapsulate(net::Ipv4Address::multicast_group(0), payload));
  EXPECT_EQ(hv.stats().sent, 0u);
}

TEST(HypervisorSwitch, EncapBuildsParseableOuterHeaders) {
  const auto t = small();
  HypervisorSwitch hv{t, 3};
  const auto group = net::Ipv4Address::multicast_group(9);
  HypervisorSwitch::GroupFlow flow;
  flow.vni = 42;
  flow.elmo_header = {0xaa, 0xbb, 0xcc};
  hv.install_flow(group, flow);

  const std::vector<std::uint8_t> payload{9, 8, 7, 6};
  const auto packet = hv.encapsulate(group, payload);
  ASSERT_TRUE(packet);
  EXPECT_EQ(packet->size(), net::kOuterHeaderBytes + 3 + 4);

  const auto bytes = packet->bytes();
  const auto eth = net::EthernetHeader::parse(bytes);
  EXPECT_EQ(eth.ether_type, net::kEtherTypeIpv4);
  EXPECT_EQ(eth.src, host_mac(3));

  const auto ip = net::Ipv4Header::parse(bytes.subspan(14));
  EXPECT_EQ(ip.dst, group);
  EXPECT_EQ(ip.src, host_address(3));
  EXPECT_EQ(ip.total_length, 20 + 8 + 8 + 3 + 4);

  const auto udp = net::UdpHeader::parse(bytes.subspan(34));
  EXPECT_EQ(udp.dst_port, net::kVxlanUdpPort);

  const auto vxlan = net::VxlanHeader::parse(bytes.subspan(42));
  EXPECT_EQ(vxlan.vni, 42u);

  // Elmo template follows the outer headers verbatim.
  EXPECT_EQ(bytes[50], 0xaa);
  EXPECT_EQ(bytes[51], 0xbb);
  EXPECT_EQ(bytes[52], 0xcc);
  // Payload after the template.
  EXPECT_EQ(bytes[53], 9);
  EXPECT_EQ(hv.stats().sent, 1u);
}

TEST(HypervisorSwitch, ReceiveDeliversToLocalMembers) {
  const auto t = small();
  HypervisorSwitch sender{t, 0};
  HypervisorSwitch receiver{t, 1};
  const auto group = net::Ipv4Address::multicast_group(5);

  HypervisorSwitch::GroupFlow tx_flow;
  tx_flow.vni = 7;
  sender.install_flow(group, tx_flow);

  HypervisorSwitch::GroupFlow rx_flow;
  rx_flow.vni = 7;
  rx_flow.local_vms = {11, 12};
  receiver.install_flow(group, rx_flow);

  const std::vector<std::uint8_t> payload(100, 0x55);
  const auto packet = sender.encapsulate(group, payload);
  ASSERT_TRUE(packet);

  const auto deliveries = test::receive(receiver, *packet);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].vm, 11u);
  EXPECT_EQ(deliveries[1].vm, 12u);
  EXPECT_EQ(deliveries[0].payload_bytes, 100u);
  EXPECT_EQ(receiver.stats().delivered_to_vms, 2u);
}

TEST(HypervisorSwitch, ReceiveDiscardsNonMemberGroups) {
  const auto t = small();
  HypervisorSwitch sender{t, 0};
  HypervisorSwitch bystander{t, 2};
  const auto group = net::Ipv4Address::multicast_group(5);
  HypervisorSwitch::GroupFlow tx_flow;
  sender.install_flow(group, tx_flow);

  const auto packet =
      sender.encapsulate(group, std::vector<std::uint8_t>{1});
  ASSERT_TRUE(packet);
  EXPECT_TRUE(test::receive(bystander, *packet).empty());
  EXPECT_EQ(bystander.stats().discarded, 1u);
}

TEST(HypervisorSwitch, EncapRejectsDatagramsBeyondSixteenBitLength) {
  const auto t = small();
  HypervisorSwitch hv{t, 3};
  const auto group = net::Ipv4Address::multicast_group(9);
  HypervisorSwitch::GroupFlow flow;
  flow.elmo_header.assign(10, 0xaa);
  hv.install_flow(group, flow);
  // IPv4 + UDP + VXLAN + template is 46 bytes: 65,489 bytes of payload make
  // the largest datagram total_length can state, one more overflows it.
  constexpr std::size_t kFits = 0xFFFF - (20 + 8 + 8 + 10);
  const auto packet =
      hv.encapsulate(group, std::vector<std::uint8_t>(kFits, 1));
  ASSERT_TRUE(packet);
  const auto ip = net::Ipv4Header::parse(packet->bytes().subspan(14));
  EXPECT_EQ(ip.total_length, 0xFFFF);
  EXPECT_EQ(net::UdpHeader::parse(packet->bytes().subspan(34)).length,
            0xFFFF - 20);
  EXPECT_THROW(hv.encapsulate(group, std::vector<std::uint8_t>(kFits + 1, 1)),
               std::length_error);
  EXPECT_EQ(hv.stats().sent, 1u);
}

TEST(HypervisorSwitch, ReinstalledFlowDeliversToExactlyItsLocalVms) {
  // The decap path reads the VM count and first VM from the flow table's
  // slot summary, so every re-install must rewrite it: 1 -> 3 -> 0 -> 1
  // local VMs, then removal.
  const auto t = small();
  HypervisorSwitch sender{t, 0};
  HypervisorSwitch receiver{t, 1};
  const auto group = net::Ipv4Address::multicast_group(5);
  sender.install_flow(group, HypervisorSwitch::GroupFlow{});
  const auto packet =
      *sender.encapsulate(group, std::vector<std::uint8_t>(64, 3));
  const auto vms_delivered = [&] {
    std::vector<std::uint32_t> vms;
    for (const auto& d : test::receive(receiver, packet)) {
      EXPECT_EQ(d.payload_bytes, 64u);
      vms.push_back(d.vm);
    }
    return vms;
  };

  std::uint64_t discards = 0;
  const std::vector<std::vector<std::uint32_t>> steps{{7}, {21, 4, 9}, {}, {30}};
  for (const auto& local_vms : steps) {
    HypervisorSwitch::GroupFlow flow;
    flow.vni = 2;
    flow.local_vms = local_vms;
    receiver.install_flow(group, flow);
    EXPECT_EQ(vms_delivered(), local_vms);
    if (local_vms.empty()) ++discards;
    EXPECT_EQ(receiver.stats().discarded, discards);
  }
  receiver.remove_flow(group);
  EXPECT_TRUE(vms_delivered().empty());
  EXPECT_EQ(receiver.stats().discarded, discards + 1);
  EXPECT_EQ(receiver.stats().delivered_to_vms, 1u + 3u + 1u);
  EXPECT_EQ(receiver.stats().delivered_bytes, 64u * 5u);
}

TEST(HypervisorSwitch, FlowLifecycle) {
  const auto t = small();
  HypervisorSwitch hv{t, 0};
  const auto group = net::Ipv4Address::multicast_group(1);
  EXPECT_FALSE(hv.has_flow(group));
  hv.install_flow(group, HypervisorSwitch::GroupFlow{});
  EXPECT_TRUE(hv.has_flow(group));
  EXPECT_EQ(hv.flow_count(), 1u);
  hv.remove_flow(group);
  EXPECT_FALSE(hv.has_flow(group));
}

}  // namespace
}  // namespace elmo::dp
