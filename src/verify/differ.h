// Differential runner: executes one Scenario through the REAL pipeline
// (Controller encode -> bit-exact header codec -> sim::Fabric event-queue
// walk) and diffs every observable against the set-based DeliveryOracle and
// the analytic TrafficEvaluator. Every membership and failure event reaches
// the fabric the way a live controller's does: through
// stream::ControlPlane (flush threshold 1), as re-encodes and rule deltas
// over the p4rt wire channel.
//
//   * after every membership event: controller member list == oracle mirror;
//   * after every membership or failure event: the installed fabric state
//     digest-equals the compiled rules of the controller's current
//     encodings (stream::fabric_state_digest against the sum of one
//     rules_digest(p4rt::compile_install) term per group, re-folded for the
//     groups the event changed), so streamed deltas never drift from what
//     p4rt::compile_install says, and no reference fabric is built;
//   * per send: every oracle-expected host got a copy (exactly one unless
//     failures legitimize duplicates), the sender host got none, per-VM
//     deliveries match copies x mirrored receiving VMs, switch hop count
//     stays within the Clos diameter, and the packet-level fabric agrees
//     with the analytic evaluator on total copies and members reached.
//
// Mutation mode turns the harness on itself: each Mutation seeds one known
// fault into the pipeline (bit-flipped header templates, dropped s-rules or
// flow VMs, stale mirrors, the pre-fix leave-by-host-only churn bug, failure
// change sets that never reach the plane) and a
// run is only useful evidence if the differ CATCHES it (applied && !ok).
// A fabric-side fault is an edit of the target group's compiled rules,
// applied to the fabric through Fabric::apply and folded into the expected
// digest, so the digest check stays silent and the send checks must catch
// it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "verify/explain.h"
#include "verify/scenario.h"

namespace elmo::obs {
class MetricsRegistry;
class Tracer;
}

namespace elmo::verify {

enum class Mutation : std::uint8_t {
  kNone = 0,
  // Clear a member-host bit in a leaf p-rule of every sender's header
  // template: that member silently stops receiving.
  kClearPRuleBit,
  // Set a spare bit in a leaf p-rule of every sender's header template: an
  // extra copy the analytic evaluator does not predict.
  kSetPRuleBit,
  // Remove an s-rule the encoding spilled to a leaf's group table.
  kDropSRule,
  // Drop one receiving VM from a hypervisor flow: host copies arrive but the
  // per-VM fan-out comes up short.
  kDropLocalVm,
  // Install the header template of a different (other-leaf) member into a
  // sender's flow.
  kWrongSenderHeader,
  // Stop propagating membership changes to the data plane (stale fabric).
  kSkipMirrorUpdate,
  // Process leaves through the legacy leave(group, host) API, which removes
  // the FIRST member on the host — the exact pre-fix ChurnSimulator desync
  // under co-location.
  kLeaveByHostOnly,
  // Hand spine and core failures and restores to the controller only,
  // dropping the change sets it returns before the control plane sees
  // them: the re-routed sender headers never reach the fabric.
  kDropFailureChanges,
};

inline constexpr std::array<Mutation, 8> kAllMutations = {
    Mutation::kClearPRuleBit,     Mutation::kSetPRuleBit,
    Mutation::kDropSRule,         Mutation::kDropLocalVm,
    Mutation::kWrongSenderHeader, Mutation::kSkipMirrorUpdate,
    Mutation::kLeaveByHostOnly,   Mutation::kDropFailureChanges,
};

const char* to_string(Mutation mutation);

struct RunReport {
  bool ok = false;
  // Mutation mode: the seeded fault actually fired in this scenario. A
  // mutation is only *validated* by a run with applied && !ok; scan more
  // seeds until one applies.
  bool applied = false;
  std::string failure;  // first divergence, human-readable; empty when ok
  // When the divergence happened during a send check: that send's rendered
  // decision tree with oracle annotations (verify::SendExplanation), so the
  // diff arrives with its own explanation attached. Empty otherwise.
  std::string explanation;
  std::size_t events_run = 0;
  std::size_t sends_checked = 0;
};

// One diffed send's full provenance join, exported via
// RunObservability::captures for tools/explain and artifact dumps.
struct SendCapture {
  std::size_t event_index = 0;  // index into Scenario::events
  std::size_t group_index = 0;
  topo::HostId sender = 0;
  SendExplanation explanation;
  // The analytic evaluator's view of the same send, for cross-checking the
  // attribution totals (members_reached / duplicate / spurious).
  std::size_t evaluator_reached = 0;
  std::size_t evaluator_duplicates = 0;
  std::size_t evaluator_spurious = 0;
};

// Optional telemetry taps for one run (DESIGN.md §9). All may be null.
// The registry receives the fabric's per-element and walk totals and the
// streaming plane's ControlPlaneStats when the run finishes
// (accumulate_fabric_metrics, accumulate_plane_metrics — one shot per run);
// `captures`
// receives one SendCapture per send the differ checks.
struct RunObservability {
  obs::MetricsRegistry* registry = nullptr;
  std::vector<SendCapture>* captures = nullptr;
  // Causal tracer (DESIGN.md §15): attached to the fabric as both its
  // time-to-effect tracer and its hop tracer and to the streaming control
  // plane, so churn events, installs, every send's hops and time-to-effect
  // closures land on one timeline.
  obs::Tracer* tracer = nullptr;
};

RunReport run_scenario(const Scenario& scenario,
                       Mutation mutation = Mutation::kNone,
                       const RunObservability* observability = nullptr);

}  // namespace elmo::verify
