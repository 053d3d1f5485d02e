// Walk-equivalence for the telemetry layer: on a clean fuzz scenario the
// data-plane counters exported through accumulate_fabric_metrics must agree
// EXACTLY with the DeliveryOracle's per-host fan-out — same set-based
// expectation the differential harness diffs the fabric against, now applied
// to the metrics pipeline end to end (registry -> snapshot -> exposition).
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/clos.h"
#include "verify/differ.h"
#include "verify/oracle.h"
#include "verify/scenario.h"

namespace elmo {
namespace {

// First seed whose scenario has no switch failures, no legacy leaves, and at
// least one send: failures legitimize duplicate deliveries and legacy policy
// needs the real encoding, either of which would turn the equality below
// into an inequality. Deterministic — generate_scenario is seed-pure.
verify::Scenario clean_scenario() {
  for (std::uint64_t seed = 1; seed < 256; ++seed) {
    auto sc = verify::generate_scenario(seed);
    bool clean = sc.legacy_leaves.empty();
    std::size_t sends = 0;
    for (const auto& ev : sc.events) {
      switch (ev.kind) {
        case verify::EventKind::kFailSpine:
        case verify::EventKind::kFailCore:
        case verify::EventKind::kRestoreSpine:
        case verify::EventKind::kRestoreCore:
          clean = false;
          break;
        case verify::EventKind::kSend:
          ++sends;
          break;
        default:
          break;
      }
    }
    if (clean && sends > 0) return sc;
  }
  ADD_FAILURE() << "no clean scenario in seeds 1..255";
  return verify::generate_scenario(1);
}

struct OracleTotals {
  std::uint64_t sends = 0;
  std::uint64_t host_copies = 0;    // one copy per expected host (no dups)
  std::uint64_t vm_deliveries = 0;  // sum of receiving VMs per expected host
};

// Mirror the scenario's membership script into the oracle and accumulate the
// ideal fan-out of every send. With no failures and no legacy leaves the
// encoding never influences expect(), so a default GroupEncoding suffices.
OracleTotals oracle_totals(const verify::Scenario& sc) {
  const topo::ClosTopology topology{sc.params};
  verify::DeliveryOracle oracle{topology, sc.legacy_leaves};
  for (const auto& g : sc.groups) oracle.create_group(g.members);

  OracleTotals totals;
  const GroupEncoding dummy;
  for (const auto& ev : sc.events) {
    switch (ev.kind) {
      case verify::EventKind::kJoin:
        oracle.join(ev.group_index, ev.member);
        break;
      case verify::EventKind::kLeave:
        oracle.leave(ev.group_index, ev.member.host, ev.member.vm);
        break;
      case verify::EventKind::kSend: {
        const auto ex = oracle.expect(ev.group_index, dummy, ev.sender);
        EXPECT_FALSE(ex.duplicates_allowed);
        ++totals.sends;
        totals.host_copies += ex.expected_hosts.size();
        for (const auto& [host, vms] : ex.expected_hosts) {
          totals.vm_deliveries += vms;
        }
        break;
      }
      default:
        ADD_FAILURE() << "failure event in a clean scenario";
        return totals;
    }
  }
  return totals;
}

TEST(WalkMetricsTest, CountersMatchDeliveryOracleFanout) {
  const auto sc = clean_scenario();
  const auto expected = oracle_totals(sc);
  ASSERT_GT(expected.sends, 0u);

  obs::MetricsRegistry registry{/*enabled=*/true};
  verify::RunObservability observability{&registry};
  const auto report =
      verify::run_scenario(sc, verify::Mutation::kNone, &observability);
  ASSERT_TRUE(report.ok) << report.failure;
  ASSERT_EQ(report.sends_checked, expected.sends);

  const auto snap = registry.snapshot();
  // Fabric totals == oracle expectation, exactly. Host copies and VM
  // deliveries are derived from the hypervisors' counters, so the element
  // block below reads the same facts under their dp names.
  EXPECT_EQ(snap.value("elmo_fabric_sends_total"),
            static_cast<double>(expected.sends));
  EXPECT_EQ(snap.value("elmo_fabric_host_copies_total"),
            static_cast<double>(expected.host_copies));
  EXPECT_EQ(snap.value("elmo_fabric_vm_deliveries_total"),
            static_cast<double>(expected.vm_deliveries));
  EXPECT_EQ(snap.value("elmo_fabric_lost_copies_total"), 0.0);

  // Hypervisor counters tell the same story from the element side: one
  // encapsulation per send, one received copy per expected host, the full
  // per-VM fan-out, and no redundant copies on a failure-free walk.
  EXPECT_EQ(snap.value("elmo_dp_host_sent_total"),
            static_cast<double>(expected.sends));
  EXPECT_EQ(snap.value("elmo_dp_host_received_total"),
            static_cast<double>(expected.host_copies));
  EXPECT_EQ(snap.value("elmo_dp_host_vm_deliveries_total"),
            static_cast<double>(expected.vm_deliveries));
  EXPECT_EQ(snap.value("elmo_dp_host_redundant_copies_total"), 0.0);

  // Byte counters are per-copy packet sizes, so they must be consistent with
  // the packet counters: every received copy carries at least the payload.
  EXPECT_GE(snap.value("elmo_dp_host_bytes_received_total"),
            64.0 * static_cast<double>(expected.host_copies));
  EXPECT_EQ(snap.value("elmo_dp_host_delivered_bytes_total"),
            64.0 * static_cast<double>(expected.vm_deliveries));
}

TEST(WalkMetricsTest, HopTracerCapturesTheWalk) {
  const auto sc = clean_scenario();
  obs::MetricsRegistry registry{/*enabled=*/true};
  obs::Tracer tracer;
  verify::RunObservability observability{&registry};
  observability.tracer = &tracer;
  const auto report =
      verify::run_scenario(sc, verify::Mutation::kNone, &observability);
  ASSERT_TRUE(report.ok) << report.failure;

  // One "send" span per fabric walk, one hop span per work item. The
  // streaming plane's churn and install spans share the tracer; they are
  // neither.
  const auto snap = registry.snapshot();
  std::size_t sends = 0, hops = 0;
  for (const auto& rec : tracer.snapshot()) {
    if (rec.kind != obs::SpanRecord::Kind::kSpan) continue;
    const std::string_view name{rec.name};
    if (name == "send") {
      ++sends;
    } else if (name == "host" || name == "leaf" || name == "spine" ||
               name == "core") {
      ++hops;
    }
  }
  EXPECT_EQ(static_cast<double>(sends), snap.value("elmo_fabric_sends_total"));
  EXPECT_EQ(static_cast<double>(hops),
            snap.value("elmo_fabric_work_items_total"));
  const auto stats = tracer.stats();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.open_spans, 0u);

  const auto trace = tracer.chrome_trace_json();
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(trace.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_EQ(trace.back(), '\n');
  // Lane metadata plus a duration event per hypervisor delivery.
  EXPECT_NE(trace.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"host\""), std::string::npos);
}

TEST(WalkMetricsTest, RecorderCapBoundsMemory) {
  const auto sc = clean_scenario();
  obs::MetricsRegistry registry{/*enabled=*/false};
  obs::Tracer tracer{/*max_events=*/4};
  verify::RunObservability observability{&registry};
  observability.tracer = &tracer;
  const auto report =
      verify::run_scenario(sc, verify::Mutation::kNone, &observability);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_LE(tracer.snapshot().size(), 4u);
  EXPECT_GT(tracer.stats().dropped, 0u);
}

}  // namespace
}  // namespace elmo
