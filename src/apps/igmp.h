// IGMP front-end: tenants keep speaking standard IP multicast.
//
// The paper's design keeps source routing "internal to the provider with
// tenants issuing standard IP multicast data packets" (§1) and joins/leaves
// arriving through a cloud API (§2). This module closes the loop for
// unmodified guests: VMs emit ordinary IGMPv2 Membership Reports / Leave
// Group messages; the hypervisor's IGMP agent intercepts them and translates
// them into Elmo controller calls — no IGMP chatter ever reaches the fabric
// (exactly the "chatty control plane" Elmo eliminates).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "elmo/controller.h"
#include "net/headers.h"

namespace elmo::apps {

// IGMPv2 message (RFC 2236): 8 bytes.
struct IgmpMessage {
  static constexpr std::size_t kSize = 8;

  enum class Type : std::uint8_t {
    kMembershipQuery = 0x11,
    kV2MembershipReport = 0x16,
    kLeaveGroup = 0x17,
  };

  Type type = Type::kV2MembershipReport;
  std::uint8_t max_response_time = 0;  // in 1/10 s, queries only
  net::Ipv4Address group;

  std::vector<std::uint8_t> serialize() const;  // checksum filled in
  // Throws std::invalid_argument on bad checksum or unknown type.
  static IgmpMessage parse(std::span<const std::uint8_t> data);
};

// Shared per-tenant directory: multicast address -> controller group id.
// Groups are created lazily on the first join to an address. The controller
// owns group lifetime: an id it no longer has (Controller::remove_group)
// counts as absent, and the next join to that address creates a fresh group.
class IgmpDirectory {
 public:
  IgmpDirectory(elmo::Controller& controller, std::uint32_t tenant)
      : controller_{&controller}, tenant_{tenant} {}

  // Group id for `address`, creating an empty group on first use.
  elmo::GroupId group_for(net::Ipv4Address address);
  // Group id for `address` if it names a live group; creates nothing.
  std::optional<elmo::GroupId> find(net::Ipv4Address address) const {
    const auto it = groups_.find(address.value);
    if (it == groups_.end() || !controller_->has_group(it->second)) {
      return std::nullopt;
    }
    return it->second;
  }

  elmo::Controller& controller() noexcept { return *controller_; }
  std::uint32_t tenant() const noexcept { return tenant_; }

 private:
  elmo::Controller* controller_;
  std::uint32_t tenant_;
  std::unordered_map<std::uint32_t, elmo::GroupId> groups_;
};

// Per-host agent living next to the hypervisor switch.
class IgmpAgent {
 public:
  IgmpAgent(IgmpDirectory& directory, topo::HostId host)
      : directory_{&directory}, host_{host} {}

  struct Stats {
    std::size_t reports = 0;
    std::size_t leaves = 0;
    std::size_t duplicate_reports = 0;  // suppressed (already a member)
    std::size_t bad_messages = 0;
  };

  // A local VM handed the hypervisor an IGMP datagram. Returns true if the
  // message changed the controller's membership. The controller's group is
  // the only membership record: a report from a member is a duplicate, a
  // leave from a non-member is ignored, whoever changed the group last.
  bool handle_vm_message(std::uint32_t vm, std::span<const std::uint8_t> data);

  // Periodic general query (RFC 2236 §3): host-local only; returns the wire
  // message VMs would answer. Never touches the fabric.
  std::vector<std::uint8_t> general_query() const;

  bool is_member(std::uint32_t vm, net::Ipv4Address group) const;
  const Stats& stats() const noexcept { return stats_; }

 private:
  bool in_group(elmo::GroupId id, std::uint32_t vm) const;

  IgmpDirectory* directory_;
  topo::HostId host_;
  Stats stats_;
};

}  // namespace elmo::apps
