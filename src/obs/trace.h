// Causal tracing across the control and data planes (DESIGN.md §15).
//
// obs::Tracer is the repo's one span store: a bounded, mutex-guarded buffer
// with explicit causal structure. Every record carries a trace ID (one per
// churn event / flush / tool phase / fabric send), a span ID, and a
// parent-span link, so a join can be followed from ingest through
// incremental re-encode, delta diff, p4rt framing and per-switch install to
// the first data-plane delivery that proves the new tree is live (the
// join-to-first-packet "time-to-effect" loop closed by sim::Fabric), and a
// fabric send down to every hop it took (Fabric::set_recorder).
//
// Design constraints:
//   * Opt-in observer: producers hold a raw `Tracer*` and test it for null
//     before doing any work — a detached tracer costs one branch.
//   * Bounded: at most `max_events` records are kept. A begin_span on a
//     full buffer returns a context with span_id == 0 (the drop sentinel)
//     and bumps `dropped`; children recorded under a dropped parent are
//     counted as `orphans` and exported parentless so the timeline stays
//     well-formed. end_span on a dropped context is a no-op.
//   * Names and attribute keys are `const char*` string literals; attrs are
//     numeric and capped at kMaxTraceAttrs per record — recording never
//     allocates beyond the (reserved) record vector.
//   * One clock: timestamps are read under the store's lock, so records
//     append in timestamp order even with concurrent producers.
//
// Export is chrome://tracing JSON on one process id, one thread lane per
// TraceLane, with "s"/"f" flow events carrying the cross-lane causal edges.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace elmo::obs {

// A (trace, span) pair that travels with the work. span_id == 0 with a
// non-zero trace_id marks a span that was dropped by the bounded buffer —
// safe to pass around, ignored by end_span, flagged by children as orphan.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  explicit operator bool() const noexcept { return trace_id != 0; }
};

// Timeline lanes (chrome://tracing tids). Control-plane event handling,
// wire framing, per-switch installs, data-plane sends, hops and effects,
// and the obs::Span phase spans each get their own swimlane.
enum class TraceLane : std::uint8_t {
  kControl = 0,
  kWire = 1,
  kInstall = 2,
  kData = 3,
  kPhase = 4,
};
inline constexpr std::size_t kTraceLaneCount = 5;
const char* to_string(TraceLane lane) noexcept;

// Numeric key/value annotation; `key` must be a string literal (or have
// static storage duration) — the tracer stores the pointer, not a copy.
struct TraceAttr {
  const char* key = "";
  double value = 0;
};
inline constexpr std::size_t kMaxTraceAttrs = 4;

// One closed time-to-effect measurement (recorded by sim::Fabric when a
// data-plane delivery closes a join/leave watch; see fabric.h).
struct TteRecord {
  std::uint64_t trace_id = 0;  // the churn event's trace
  bool leave = false;          // false: join-to-first-delivery
  std::uint32_t group = 0;     // group address
  std::uint32_t host = 0;
  double tte_seconds = 0;      // leave with no stale delivery: 0
  bool stale_seen = false;     // leave only: a stale copy was delivered
};

// Everything the tracer remembers about one record. Public so tools
// (trace_query) can snapshot and re-join without reparsing JSON.
struct SpanRecord {
  enum class Kind : std::uint8_t { kSpan, kInstant, kFlow };

  Kind kind = Kind::kSpan;
  TraceLane lane = TraceLane::kControl;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;      // spans/instants: own id; flows: flow id
  std::uint64_t parent_span = 0;  // spans/instants: parent; flows: TO span
  std::uint64_t link_span = 0;    // flows: FROM span
  TraceLane link_lane = TraceLane::kControl;  // flows: FROM lane
  const char* name = "";
  double ts_us = 0;
  double dur_us = -1;  // spans only; -1 while still open
  bool orphan = false;  // parent was dropped before this was recorded
  std::uint8_t nattrs = 0;
  TraceAttr attrs[kMaxTraceAttrs];
};

struct TracerStats {
  std::uint64_t spans = 0;
  std::uint64_t instants = 0;
  std::uint64_t flows = 0;
  std::uint64_t dropped = 0;  // records refused because the buffer was full
  std::uint64_t orphans = 0;  // children recorded under a dropped parent
  std::uint64_t open_spans = 0;
  std::uint64_t max_events = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t max_events = kDefaultMaxEvents);

  // Microseconds since this tracer was constructed (steady clock).
  double now_us() const noexcept;

  // Opens a span. With a null parent (trace_id == 0) a fresh trace is
  // minted and the span is its root; otherwise the span joins the parent's
  // trace. Returns the context to thread through child work and end_span.
  TraceContext begin_span(const char* name, TraceLane lane,
                          TraceContext parent = {},
                          std::initializer_list<TraceAttr> attrs = {});
  // Closes `span`; `attrs` are appended to the ones given at begin (still
  // capped at kMaxTraceAttrs) for values only known once the work is done.
  void end_span(const TraceContext& span,
                std::initializer_list<TraceAttr> attrs = {});

  // Point-in-time event in `parent`'s trace (or a fresh trace if null).
  // Returns a context usable as a flow endpoint.
  TraceContext instant(const char* name, TraceLane lane,
                       TraceContext parent = {},
                       std::initializer_list<TraceAttr> attrs = {});

  // Cross-lane causal edge `from` -> `to` (chrome s/f flow event pair).
  // Both endpoints must name recorded spans/instants; dropped endpoints
  // (span_id == 0) are recorded as orphaned so accounting still reconciles.
  void flow(const TraceContext& from, TraceLane from_lane,
            const TraceContext& to, TraceLane to_lane);

  TracerStats stats() const;
  std::vector<SpanRecord> snapshot() const;
  void clear();

  // chrome://tracing document: lane names, the elmo_tracer_stats
  // accounting record, then every record in buffer order.
  std::string chrome_trace_json() const;
  // Writes chrome_trace_json() to `path` ("-" = stderr); false if the file
  // cannot be opened.
  bool write(const std::string& path) const;

  static constexpr std::size_t kDefaultMaxEvents = 1 << 16;

 private:
  TraceContext record(SpanRecord::Kind kind, const char* name, TraceLane lane,
                      TraceContext parent,
                      std::initializer_list<TraceAttr> attrs);

  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::size_t max_events_;
  std::uint64_t next_trace_ = 0;
  std::uint64_t next_span_ = 0;
  std::uint64_t spans_ = 0;
  std::uint64_t instants_ = 0;
  std::uint64_t flows_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t orphans_ = 0;
  std::uint64_t open_ = 0;
  std::chrono::steady_clock::time_point origin_;
};

// Process-wide tracer hook for obs::Span's tracer-emitting constructor
// (span.h): tools that want controller/cluster/pool phase spans on the
// timeline install their Tracer here for the run. Null by default;
// the disabled path stays one relaxed atomic load.
void set_global_tracer(Tracer* tracer) noexcept;
Tracer* global_tracer() noexcept;

}  // namespace elmo::obs
