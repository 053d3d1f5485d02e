#include "apps/igmp.h"

#include <gtest/gtest.h>

namespace elmo::apps {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

net::Ipv4Address mcast(const char* a) {
  return net::Ipv4Address::from_string(a);
}

TEST(IgmpMessage, RoundTripWithValidChecksum) {
  IgmpMessage msg;
  msg.type = IgmpMessage::Type::kV2MembershipReport;
  msg.group = mcast("239.1.2.3");
  const auto bytes = msg.serialize();
  ASSERT_EQ(bytes.size(), IgmpMessage::kSize);
  EXPECT_EQ(net::Ipv4Header::checksum(bytes), 0);  // checksums to zero
  const auto parsed = IgmpMessage::parse(bytes);
  EXPECT_EQ(parsed.type, IgmpMessage::Type::kV2MembershipReport);
  EXPECT_EQ(parsed.group, msg.group);
}

TEST(IgmpMessage, RejectsCorruption) {
  IgmpMessage msg;
  msg.group = mcast("239.0.0.9");
  auto bytes = msg.serialize();
  bytes[7] ^= 0x01;  // flip a group bit without fixing the checksum
  EXPECT_THROW(IgmpMessage::parse(bytes), std::invalid_argument);
  bytes[7] ^= 0x01;
  bytes[0] = 0x42;  // unknown type (also breaks checksum)
  EXPECT_THROW(IgmpMessage::parse(bytes), std::invalid_argument);
  EXPECT_THROW(IgmpMessage::parse(std::vector<std::uint8_t>(4, 0)),
               std::invalid_argument);
}

struct IgmpFixture : ::testing::Test {
  IgmpFixture()
      : topology{small()},
        controller{topology, EncoderConfig{}},
        directory{controller, /*tenant=*/7} {}

  std::vector<std::uint8_t> membership_report(const char* group) {
    IgmpMessage msg;
    msg.type = IgmpMessage::Type::kV2MembershipReport;
    msg.group = mcast(group);
    return msg.serialize();
  }
  std::vector<std::uint8_t> leave(const char* group) {
    IgmpMessage msg;
    msg.type = IgmpMessage::Type::kLeaveGroup;
    msg.group = mcast(group);
    return msg.serialize();
  }

  topo::ClosTopology topology;
  Controller controller;
  IgmpDirectory directory;
};

TEST_F(IgmpFixture, ReportCreatesGroupAndJoins) {
  IgmpAgent agent{directory, /*host=*/3};
  EXPECT_FALSE(directory.find(mcast("239.9.9.9")).has_value());
  EXPECT_TRUE(agent.handle_vm_message(0, membership_report("239.9.9.9")));
  EXPECT_TRUE(directory.find(mcast("239.9.9.9")).has_value());
  EXPECT_TRUE(agent.is_member(0, mcast("239.9.9.9")));

  const auto id = directory.group_for(mcast("239.9.9.9"));
  const auto& g = controller.group(id);
  ASSERT_EQ(g.members.size(), 1u);
  EXPECT_EQ(g.members[0].host, 3u);
  EXPECT_EQ(g.members[0].role, MemberRole::kReceiver);
}

TEST_F(IgmpFixture, DuplicateReportsAreSuppressed) {
  // IGMP hosts retransmit reports; the controller must see each join once
  // (the "chatty control plane" stays host-local).
  IgmpAgent agent{directory, 3};
  EXPECT_TRUE(agent.handle_vm_message(0, membership_report("239.1.1.1")));
  EXPECT_FALSE(agent.handle_vm_message(0, membership_report("239.1.1.1")));
  EXPECT_FALSE(agent.handle_vm_message(0, membership_report("239.1.1.1")));
  EXPECT_EQ(agent.stats().reports, 3u);
  EXPECT_EQ(agent.stats().duplicate_reports, 2u);
  const auto id = directory.group_for(mcast("239.1.1.1"));
  EXPECT_EQ(controller.group(id).members.size(), 1u);
}

TEST_F(IgmpFixture, LeaveRemovesMembership) {
  IgmpAgent agent{directory, 3};
  agent.handle_vm_message(0, membership_report("239.1.1.1"));
  EXPECT_TRUE(agent.handle_vm_message(0, leave("239.1.1.1")));
  EXPECT_FALSE(agent.is_member(0, mcast("239.1.1.1")));
  const auto id = directory.group_for(mcast("239.1.1.1"));
  EXPECT_TRUE(controller.group(id).members.empty());
  // Leave without join is a no-op, not an error.
  EXPECT_FALSE(agent.handle_vm_message(0, leave("239.1.1.1")));
}

TEST_F(IgmpFixture, MembershipChangedOutsideTheAgentIsHonoured) {
  // The controller's group is the only membership record: a VM removed by
  // a direct controller call rejoins on its next report, and a VM added
  // that way is a member whose report is a duplicate.
  IgmpAgent agent{directory, /*host=*/5};
  EXPECT_TRUE(agent.handle_vm_message(3, membership_report("239.2.2.2")));
  const auto id = directory.group_for(mcast("239.2.2.2"));
  controller.leave(id, 5, 3);
  EXPECT_FALSE(agent.is_member(3, mcast("239.2.2.2")));

  EXPECT_TRUE(agent.handle_vm_message(3, membership_report("239.2.2.2")));
  EXPECT_EQ(agent.stats().duplicate_reports, 0u);
  EXPECT_TRUE(agent.is_member(3, mcast("239.2.2.2")));
  ASSERT_EQ(controller.group(id).members.size(), 1u);

  controller.join(id, Member{5, 4, MemberRole::kReceiver});
  EXPECT_TRUE(agent.is_member(4, mcast("239.2.2.2")));
  EXPECT_FALSE(agent.handle_vm_message(4, membership_report("239.2.2.2")));
  EXPECT_EQ(agent.stats().duplicate_reports, 1u);
  EXPECT_TRUE(agent.handle_vm_message(4, leave("239.2.2.2")));
  EXPECT_EQ(controller.group(id).members.size(), 1u);
}

TEST_F(IgmpFixture, GroupRemovedByTheControllerIsRecreatedOnNextReport) {
  // The controller owns group lifetime: once it removes the group, the
  // address has none, so membership queries and leaves see no group and
  // the next report creates a fresh one.
  IgmpAgent agent{directory, /*host=*/6};
  EXPECT_TRUE(agent.handle_vm_message(1, membership_report("239.4.4.4")));
  const auto removed = directory.group_for(mcast("239.4.4.4"));
  controller.remove_group(removed);

  EXPECT_FALSE(directory.find(mcast("239.4.4.4")).has_value());
  EXPECT_FALSE(agent.is_member(1, mcast("239.4.4.4")));
  EXPECT_FALSE(agent.handle_vm_message(1, leave("239.4.4.4")));

  EXPECT_TRUE(agent.handle_vm_message(1, membership_report("239.4.4.4")));
  const auto fresh = directory.group_for(mcast("239.4.4.4"));
  EXPECT_NE(fresh, removed);
  EXPECT_TRUE(agent.is_member(1, mcast("239.4.4.4")));
  ASSERT_EQ(controller.group(fresh).members.size(), 1u);
  EXPECT_EQ(controller.group(fresh).members[0].host, 6u);
}

TEST_F(IgmpFixture, LeaveToAnUnknownAddressCreatesNoGroup) {
  IgmpAgent agent{directory, 3};
  EXPECT_FALSE(agent.handle_vm_message(0, leave("239.3.3.3")));
  EXPECT_FALSE(directory.find(mcast("239.3.3.3")).has_value());
  EXPECT_FALSE(agent.is_member(0, mcast("239.3.3.3")));
  EXPECT_EQ(controller.num_groups(), 0u);
}

TEST_F(IgmpFixture, ColocatedVmLeaveRemovesOnlyThatVm) {
  // Two VMs on one host join the same group; the second one leaving must
  // remove exactly that VM, not the first member found on the host.
  IgmpAgent agent{directory, 3};
  agent.handle_vm_message(0, membership_report("239.1.1.1"));
  agent.handle_vm_message(1, membership_report("239.1.1.1"));
  EXPECT_TRUE(agent.handle_vm_message(1, leave("239.1.1.1")));
  EXPECT_TRUE(agent.is_member(0, mcast("239.1.1.1")));
  EXPECT_FALSE(agent.is_member(1, mcast("239.1.1.1")));

  const auto id = directory.group_for(mcast("239.1.1.1"));
  const auto& g = controller.group(id);
  ASSERT_EQ(g.members.size(), 1u);
  EXPECT_EQ(g.members[0].host, 3u);
  EXPECT_EQ(g.members[0].vm, 0u);
}

TEST_F(IgmpFixture, MultipleAgentsBuildOneGroup) {
  IgmpAgent a{directory, 0};
  IgmpAgent b{directory, 17};
  IgmpAgent c{directory, 33};
  a.handle_vm_message(0, membership_report("239.5.5.5"));
  b.handle_vm_message(1, membership_report("239.5.5.5"));
  c.handle_vm_message(2, membership_report("239.5.5.5"));

  const auto id = directory.group_for(mcast("239.5.5.5"));
  const auto& g = controller.group(id);
  EXPECT_EQ(g.members.size(), 3u);
  EXPECT_EQ(g.tree->num_members(), 3u);
  EXPECT_TRUE(g.tree->spans_multiple_pods());
}

TEST_F(IgmpFixture, NonMulticastGroupRejected) {
  IgmpAgent agent{directory, 0};
  IgmpMessage msg;
  msg.type = IgmpMessage::Type::kV2MembershipReport;
  msg.group = net::Ipv4Address::from_string("10.0.0.1");
  EXPECT_FALSE(agent.handle_vm_message(0, msg.serialize()));
  EXPECT_EQ(agent.stats().bad_messages, 1u);
}

TEST_F(IgmpFixture, GeneralQueryIsWellFormed) {
  IgmpAgent agent{directory, 0};
  const auto query = agent.general_query();
  const auto parsed = IgmpMessage::parse(query);
  EXPECT_EQ(parsed.type, IgmpMessage::Type::kMembershipQuery);
  EXPECT_EQ(parsed.group.value, 0u);
  // VMs answering the query do not re-trigger controller calls.
  EXPECT_FALSE(agent.handle_vm_message(0, query));
}

TEST_F(IgmpFixture, AddressSpaceIsolationAcrossTenants) {
  // Two tenants pick the SAME multicast address; their groups stay disjoint.
  IgmpDirectory other_directory{controller, /*tenant=*/8};
  IgmpAgent tenant7{directory, 0};
  IgmpAgent tenant8{other_directory, 4};
  tenant7.handle_vm_message(0, membership_report("239.7.7.7"));
  IgmpMessage msg;
  msg.group = mcast("239.7.7.7");
  tenant8.handle_vm_message(0, msg.serialize());

  const auto id7 = directory.group_for(mcast("239.7.7.7"));
  const auto id8 = other_directory.group_for(mcast("239.7.7.7"));
  EXPECT_NE(id7, id8);
  EXPECT_NE(controller.group(id7).address, controller.group(id8).address);
}

}  // namespace
}  // namespace elmo::apps
