// Tracer unit tests (DESIGN.md §15): causal structure (trace minting,
// parent links, flows), the bounded-buffer drop/orphan accounting the
// timeline linter reconciles against, the chrome://tracing export shape,
// and the obs::Span -> global tracer integration.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace elmo::obs {
namespace {

TEST(TraceSpans, MintsTracesAndLinksChildren) {
  Tracer tracer;
  const auto root = tracer.begin_span("root", TraceLane::kControl);
  EXPECT_NE(root.trace_id, 0u);
  EXPECT_NE(root.span_id, 0u);

  const auto child = tracer.begin_span("child", TraceLane::kControl, root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);

  const auto other = tracer.begin_span("other", TraceLane::kWire);
  EXPECT_NE(other.trace_id, root.trace_id);  // null parent -> fresh trace

  tracer.end_span(child);
  tracer.end_span(root);
  tracer.end_span(other);

  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].parent_span, 0u);
  EXPECT_EQ(records[1].parent_span, root.span_id);
  EXPECT_GE(records[1].dur_us, 0);  // closed
  EXPECT_LE(records[1].ts_us + records[1].dur_us,
            records[0].ts_us + records[0].dur_us + 1e-3);

  const auto stats = tracer.stats();
  EXPECT_EQ(stats.spans, 3u);
  EXPECT_EQ(stats.open_spans, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.orphans, 0u);
}

TEST(TraceSpans, AttrsAreCappedAtMax) {
  Tracer tracer;
  const auto ctx = tracer.begin_span(
      "attrs", TraceLane::kControl, {},
      {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}, {"f", 6}});
  tracer.end_span(ctx);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].nattrs, kMaxTraceAttrs);
  EXPECT_STREQ(records[0].attrs[0].key, "a");
  EXPECT_EQ(records[0].attrs[3].value, 4.0);

  // Attrs given at end_span append after the begin ones, under the same cap.
  const auto late = tracer.begin_span("late", TraceLane::kControl, {},
                                      {{"a", 1}, {"b", 2}, {"c", 3}});
  tracer.end_span(late, {{"d", 4}, {"e", 5}});
  const auto closed = tracer.snapshot().back();
  EXPECT_EQ(closed.nattrs, kMaxTraceAttrs);
  EXPECT_STREQ(closed.attrs[3].key, "d");
  EXPECT_EQ(closed.attrs[3].value, 4.0);
}

TEST(TraceDrops, FullBufferDropsAndOrphansChildren) {
  Tracer tracer{2};  // room for exactly two records
  const auto a = tracer.begin_span("a", TraceLane::kControl);
  const auto b = tracer.begin_span("b", TraceLane::kControl, a);
  const auto c = tracer.begin_span("c", TraceLane::kControl, a);  // dropped
  EXPECT_EQ(c.trace_id, a.trace_id);  // trace id still propagates
  EXPECT_EQ(c.span_id, 0u);           // the drop sentinel

  // A child recorded under the dropped span would be an orphan — but the
  // buffer is full, so it is dropped too and both counters advance.
  const auto d = tracer.begin_span("d", TraceLane::kControl, c);
  EXPECT_EQ(d.span_id, 0u);

  tracer.end_span(c);  // no-op: nothing was recorded
  tracer.end_span(b);
  tracer.end_span(a);

  const auto stats = tracer.stats();
  EXPECT_EQ(stats.spans, 2u);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.open_spans, 0u);
  EXPECT_EQ(tracer.snapshot().size(), 2u);
}

TEST(TraceDrops, ChildOfDroppedParentIsOrphanWhenRoomRemains) {
  Tracer tracer{1};
  const auto root = tracer.begin_span("root", TraceLane::kControl);
  const auto dropped = tracer.begin_span("gone", TraceLane::kControl, root);
  ASSERT_EQ(dropped.span_id, 0u);
  tracer.clear();  // room again; counters reset, next IDs keep advancing
  const auto orphan = tracer.begin_span("orphan", TraceLane::kControl, dropped);
  EXPECT_NE(orphan.span_id, 0u);
  EXPECT_EQ(orphan.trace_id, root.trace_id);
  tracer.end_span(orphan);
  const auto stats = tracer.stats();
  EXPECT_EQ(stats.orphans, 1u);
  EXPECT_EQ(stats.dropped, 0u);  // cleared with the buffer
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].orphan);
  EXPECT_EQ(records[0].parent_span, 0u);  // exported parentless
}

TEST(TraceFlows, RecordsCrossLaneEdges) {
  Tracer tracer;
  const auto from = tracer.begin_span("event", TraceLane::kControl);
  const auto to = tracer.instant("effect", TraceLane::kData, from);
  tracer.flow(from, TraceLane::kControl, to, TraceLane::kData);
  tracer.end_span(from);

  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 3u);
  const auto& flow = records[2];
  EXPECT_EQ(flow.kind, SpanRecord::Kind::kFlow);
  EXPECT_EQ(flow.link_span, from.span_id);
  EXPECT_EQ(flow.link_lane, TraceLane::kControl);
  EXPECT_EQ(flow.parent_span, to.span_id);
  EXPECT_EQ(flow.lane, TraceLane::kData);
  EXPECT_EQ(flow.trace_id, from.trace_id);

  const auto stats = tracer.stats();
  EXPECT_EQ(stats.flows, 1u);
  EXPECT_EQ(stats.instants, 1u);
}

TEST(TraceFlows, DroppedEndpointMarksOrphan) {
  Tracer tracer{1};
  const auto a = tracer.begin_span("a", TraceLane::kControl);
  const auto dropped = tracer.begin_span("b", TraceLane::kData, a);
  ASSERT_EQ(dropped.span_id, 0u);
  tracer.clear();
  tracer.flow(a, TraceLane::kControl, dropped, TraceLane::kData);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].orphan);
  EXPECT_EQ(tracer.stats().orphans, 1u);
}

TEST(TraceExport, ChromeJsonCarriesLanesStatsAndFlowPairs) {
  Tracer tracer;
  // A 32-bit group address must print exactly, not rounded by %g.
  const auto root = tracer.begin_span("churn:join", TraceLane::kControl, {},
                                      {{"group", 4009754624.0}});
  const auto inst = tracer.instant("tte:first_delivery", TraceLane::kData,
                                   root);
  tracer.flow(root, TraceLane::kControl, inst, TraceLane::kData);
  tracer.end_span(root);
  const auto open = tracer.begin_span("open", TraceLane::kWire);
  (void)open;  // intentionally left open: export must still be well-formed

  const auto json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"elmo_trace\""), std::string::npos);
  EXPECT_NE(json.find("\"elmo_tracer_stats\""), std::string::npos);
  EXPECT_NE(json.find("\"churn:join\""), std::string::npos);
  EXPECT_NE(json.find("\"group\": 4009754624"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"open\": 1"), std::string::npos);
  // All five lanes get thread names.
  for (const char* lane : {"control", "wire", "install", "data", "phases"}) {
    EXPECT_NE(json.find(std::string{"\""} + lane + "\""), std::string::npos)
        << lane;
  }
}

TEST(TraceConcurrency, ParallelProducersStayAccounted) {
  // The controller's tree-encode phase spans record from pool workers while
  // the control plane traces on the main thread; TSan runs this test to
  // pin the mutex-guarded store (see tests/CMakeLists.txt).
  Tracer tracer;
  constexpr std::uint64_t kThreads = 4, kPer = 200;
  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        const auto phase = tracer.begin_span("phase", TraceLane::kPhase);
        const auto root = tracer.begin_span("root", TraceLane::kControl);
        const auto effect = tracer.instant("effect", TraceLane::kData, root);
        tracer.flow(root, TraceLane::kControl, effect, TraceLane::kData);
        tracer.end_span(root);
        tracer.end_span(phase);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto stats = tracer.stats();
  EXPECT_EQ(stats.spans, 2 * kThreads * kPer);
  EXPECT_EQ(stats.instants, kThreads * kPer);
  EXPECT_EQ(stats.flows, kThreads * kPer);
  EXPECT_EQ(stats.open_spans, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.orphans, 0u);

  // The export keeps buffer order, and its linter wants timestamps that
  // never decrease within a lane (a flow prints on both of its lanes).
  double last[kTraceLaneCount] = {};
  auto in_order = [&last](TraceLane lane, const SpanRecord& rec) {
    auto& prev = last[static_cast<std::size_t>(lane)];
    EXPECT_GE(rec.ts_us, prev) << rec.name << " on " << to_string(lane);
    prev = rec.ts_us;
  };
  for (const auto& rec : tracer.snapshot()) {
    in_order(rec.lane, rec);
    if (rec.kind == SpanRecord::Kind::kFlow) in_order(rec.link_lane, rec);
  }
}

TEST(TraceSpanIntegration, GlobalTracerMirrorsPhaseSpans) {
  Tracer tracer;
  MetricsRegistry reg{false};  // metrics off: tracer alone must arm the span
  set_global_tracer(&tracer);
  {
    Span span{reg, 0, "phase:test"};
  }
  set_global_tracer(nullptr);
  {
    Span span{reg, 0, "phase:untraced"};  // no tracer, no registry: inert
  }
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "phase:test");
  EXPECT_EQ(records[0].lane, TraceLane::kPhase);
  EXPECT_GE(records[0].dur_us, 0);  // finished by the destructor
  EXPECT_EQ(tracer.stats().open_spans, 0u);
}

}  // namespace
}  // namespace elmo::obs
