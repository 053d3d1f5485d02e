// Per-packet decision provenance (DESIGN.md §10).
//
// A ProvenanceLog is an optional, walk-attached record of every forwarding
// decision one multicast packet triggered on its way from the source
// hypervisor to each receiving host: per hop, the rule class that matched
// (parser-matched p-rule / upstream rule / group-table s-rule / default
// p-rule), the rule bitmap before and after masking (multipath collapses the
// upstream bitmap to one picked port), the Elmo header bytes the hop popped,
// and the egress set. The hops form a tree rooted at the source host — the
// packet's decision tree — which tools/explain joins against the delivery
// oracle to attribute every delivered copy (and every wasted one) to the
// encoding decision that caused it.
//
// Attachment is strictly opt-in and zero-cost when detached: the fabric
// holds the log, not the forwarding elements. Per work item the walk opens
// the hop (begin_hop) and hands the element that hop's HopDecision slot as
// a plain pointer argument of process(); the element fills the slot in
// place. A fabric with no log passes null, so an element pays one
// null-pointer test per process() call and the walk one per work item; no
// bitmap is copied and no allocation happens unless a log is listening. An
// element driven outside a walk gets no slot and records nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/bitmap.h"
#include "topology/clos.h"

namespace elmo::obs {

// Index sentinel for "no parent hop" (the root of a send's decision tree).
inline constexpr std::size_t kNoProvParent = static_cast<std::size_t>(-1);

// Which pipeline stage produced a hop's emissions (paper §4.1 ingress
// control flow, in match priority order).
enum class RuleClass : std::uint8_t {
  kNone = 0,      // no decision recorded (root, or element without hook)
  kSource,        // the sending hypervisor (root of the tree)
  kPRule,         // parser-matched p-rule (or the sender's core bitmap)
  kUpstream,      // this layer's upstream rule
  kSRule,         // group-table lookup (s-rule spillover or legacy chip)
  kDefault,       // lossy default p-rule fallback
  kHostDeliver,   // hypervisor decapsulated and delivered to local VMs
  kHostDiscard,   // hypervisor had no local members (a wasted copy)
  kDrop,          // no rule matched, or the switch is down
};

const char* to_string(RuleClass rule);

// One forwarding decision, filled by the element that made it.
struct HopDecision {
  RuleClass rule = RuleClass::kNone;
  int prule_index = -1;     // matched p-rule's index in its layer section
  bool prule_shared = false;  // matched p-rule lists >1 switch id (merged)
  bool legacy = false;        // legacy chip: group-table only
  bool multipath = false;     // upstream rule deferred to ECMP masking
  net::PortBitmap bitmap;     // rule bitmap before masking (downstream side)
  net::PortBitmap up_bitmap;  // upstream rule's up bitmap before masking
  net::PortBitmap egress;     // ports actually replicated to, after masking
                              // (uplinks offset by the downstream port count)
  std::size_t popped_bytes = 0;   // Elmo header bytes removed at this hop
  std::uint32_t vm_deliveries = 0;  // host hops: local member VMs served
};

// One node of a send's decision tree: a packet replica arriving somewhere.
struct ProvHop {
  topo::Layer layer = topo::Layer::kHost;
  std::uint32_t node = 0;         // switch / host id within the layer
  std::size_t parent = kNoProvParent;
  std::size_t bytes_in = 0;       // wire size of the copy on arrival (a lost
                                  // copy: the size it left with)
  bool lost = false;              // dropped by the loss model in flight
  HopDecision decision;
  std::vector<std::size_t> children;  // in (layer, node), i.e. port, order
};

// The decision tree of one multicast send. hops[0] is the source host.
struct SendTrace {
  std::uint32_t group = 0;
  std::uint32_t src_host = 0;
  std::vector<ProvHop> hops;
};

class ProvenanceLog {
 public:
  // Starts a new trace rooted at the sending host; returns the root index.
  std::size_t begin_send(std::uint32_t group, std::uint32_t src_host,
                         std::size_t bytes);

  // Appends a hop to the current trace and links it under `parent`. Returns
  // the hop's index.
  std::size_t begin_hop(topo::Layer layer, std::uint32_t node,
                        std::size_t parent, std::size_t bytes_in);

  // The decision slot of hop `hop` of the current trace, for the element
  // processing that hop to fill. Valid until the next begin_send,
  // begin_hop, lost_copy or clear.
  HopDecision& decision(std::size_t hop) {
    return sends_.back().hops[hop].decision;
  }

  // Records a copy of `bytes` on the wire that the loss model dropped in
  // flight to (`layer`, `node`).
  void lost_copy(topo::Layer layer, std::uint32_t node, std::size_t parent,
                 std::size_t bytes);

  const std::vector<SendTrace>& sends() const noexcept { return sends_; }
  bool empty() const noexcept { return sends_.empty(); }
  const SendTrace& last() const { return sends_.back(); }

  void clear();

 private:
  std::vector<SendTrace> sends_;
};

// A node's name in every rendered tree: "host3", "L0", "S2", "C1".
std::string node_name(topo::Layer layer, std::uint32_t node);

// Compact one-line description of a decision ("default p-rule ports=0110,
// popped 12B") shared by the plain and the oracle-annotated renderers.
std::string describe(const HopDecision& decision);

// Plain-text decision tree (no oracle join; tools/explain renders the
// annotated version via verify::SendExplanation).
std::string render_trace(const SendTrace& trace);

}  // namespace elmo::obs
