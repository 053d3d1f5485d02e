// P4Runtime-style control channel (paper §2: the controller "uses a control
// interface (like P4Runtime) to install match-action rules in the switches
// at run time").
//
// compile is the one place that turns a group into rules; compile_install is
// its all-slots case. Rules reach a fabric one way: the streaming control
// plane (stream::ControlPlane) compiles the slots it diffs — an event's
// change set, or for ControlPlane::sync every slot a group compiles or the
// fabric holds under its address — compares each with what the fabric
// holds, and sends only the adds that differ plus a delete for each
// occupied slot the group no longer compiles. Those deletes are built in one
// place in the plane; compile only builds adds. (sim::Fabric::install_group,
// which applies compile_install without the wire, is left only as the
// end-to-end benchmark's set-up.) sim::Fabric::apply is the one place that
// applies an Update to the data plane. Rule updates
// are serialized into framed, self-describing binary messages so that the
// controller and the switches can live in different processes (as they do
// in a real deployment).
//
// Message framing (big-endian):
//   batch   := magic(u32 "P4EL") count(u32) message*
//   message := kind(u8) length(u16) body            -- standard frame
//            | kind|0x80(u8) length(u32) body       -- extended frame (v2)
//   kinds:
//     1 HYPERVISOR_FLOW_ADD    host(u32) group(u32) vni(u32)
//                              vm_count(u16) vm*u32
//                              header_len(u16) header bytes
//     2 HYPERVISOR_FLOW_DEL    host(u32) group(u32)
//     3 SRULE_ADD              layer(u8) switch(u32) group(u32)
//                              port_count(u16) bitmap bytes (LSB-first words)
//     4 SRULE_DEL              layer(u8) switch(u32) group(u32)
//
// Extended frames (v2): a message whose body or embedded counts exceed the
// 16-bit fields — e.g. a HYPERVISOR_FLOW_ADD for a host running more than
// ~16K member VMs of one group — sets the high bit of the kind byte, carries
// a u32 length, and widens every count field in the body (vm_count,
// header_len, port_count) to u32. The encoder picks the extended frame only
// when the standard one cannot represent the message, so v1 streams are
// byte-identical to before and any v1 stream remains decodable; counts are
// validated before narrowing casts instead of silently truncated.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "elmo/controller.h"

namespace elmo::p4rt {

enum class UpdateKind : std::uint8_t {
  kHypervisorFlowAdd = 1,
  kHypervisorFlowDel = 2,
  kSRuleAdd = 3,
  kSRuleDel = 4,
};

// High bit of the wire kind byte: the frame carries a u32 length and u32
// count fields (see file header).
inline constexpr std::uint8_t kExtendedFrameBit = 0x80;

struct Update {
  UpdateKind kind = UpdateKind::kHypervisorFlowAdd;
  // Hypervisor fields.
  topo::HostId host = 0;
  std::uint32_t vni = 0;
  std::vector<std::uint32_t> local_vms;
  std::vector<std::uint8_t> elmo_header;
  // Network-switch fields.
  topo::Layer layer = topo::Layer::kLeaf;
  std::uint32_t switch_id = 0;
  net::PortBitmap ports;
  // Common.
  net::Ipv4Address group;

  bool operator==(const Update&) const = default;
};

// Compiles the adds of `group` at the slots `slots` names (its lists sorted,
// as RuleSlots keeps them), or at every slot when `slots` is null. A
// filtered compile is the subsequence of the all-slots one at the named
// slots; a named slot the group does not compile (a host with no member
// left, an s-rule the encoding dropped) yields nothing.
std::vector<Update> compile(const Controller& controller, elmo::GroupId group,
                            const RuleSlots* slots);

// Compiles the full installation of `group` into an update batch (the state
// a sync leaves in a fabric for a live group, and what the state digests
// fold): one HYPERVISOR_FLOW_ADD per distinct member host, ascending by
// host, merged across co-located members (a flow per member would overwrite
// the host's flow on apply and drop the earlier members' VMs); then the leaf
// s-rules; then one spine s-rule per plane of every pod s-rule. Each flow's
// header equals Controller::header_for(group, host); the group's shared
// header tail is serialized once per call and spliced behind each sender's
// upstream sections (HeaderCodec::serialize_shared), which one RouteContext
// per call computes and serializes once per sender pod.
std::vector<Update> compile_install(const Controller& controller,
                                    elmo::GroupId group);

// Wire codec. encode throws std::length_error only if a single count cannot
// fit even the extended u32 fields.
std::vector<std::uint8_t> encode(std::span<const Update> updates);
// Throws std::invalid_argument on malformed input.
std::vector<Update> decode(std::span<const std::uint8_t> wire);

}  // namespace elmo::p4rt
