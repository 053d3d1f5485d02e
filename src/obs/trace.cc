#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace elmo::obs {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

// chrome://tracing wants decimal microseconds; fixed 3 digits keeps the
// files diffable.
void append_us(std::string& out, double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

// Integral attrs (ids, group addresses, counts) print exactly; %g alone
// would round a 32-bit group address to six digits.
void append_attr_value(std::string& out, double v) {
  char buf[32];
  const bool integral = std::fabs(v) < 1e15 && v == std::trunc(v);
  std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%g", v);
  out += buf;
}

}  // namespace

const char* to_string(TraceLane lane) noexcept {
  switch (lane) {
    case TraceLane::kControl: return "control";
    case TraceLane::kWire: return "wire";
    case TraceLane::kInstall: return "install";
    case TraceLane::kData: return "data";
    case TraceLane::kPhase: return "phases";
  }
  return "?";
}

Tracer::Tracer(std::size_t max_events)
    : max_events_{max_events == 0 ? 1 : max_events},
      origin_{std::chrono::steady_clock::now()} {
  records_.reserve(std::min<std::size_t>(max_events_, 4096));
}

double Tracer::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

TraceContext Tracer::record(SpanRecord::Kind kind, const char* name,
                            TraceLane lane, TraceContext parent,
                            std::initializer_list<TraceAttr> attrs) {
  std::lock_guard<std::mutex> lock{mu_};
  // Clock read under the lock: records append in timestamp order even when
  // pool workers and the main thread record concurrently.
  const double now = now_us();
  const std::uint64_t trace =
      parent.trace_id != 0 ? parent.trace_id : ++next_trace_;
  if (records_.size() >= max_events_) {
    ++dropped_;
    return TraceContext{trace, 0};
  }
  SpanRecord rec;
  rec.kind = kind;
  rec.lane = lane;
  rec.trace_id = trace;
  rec.span_id = ++next_span_;
  rec.name = name;
  rec.ts_us = now;
  rec.dur_us = kind == SpanRecord::Kind::kSpan ? -1 : 0;
  if (parent.trace_id != 0 && parent.span_id == 0) {
    rec.orphan = true;  // parent fell to the bounded buffer
    ++orphans_;
  } else {
    rec.parent_span = parent.span_id;
  }
  for (const auto& a : attrs) {
    if (rec.nattrs >= kMaxTraceAttrs) break;
    rec.attrs[rec.nattrs++] = a;
  }
  if (kind == SpanRecord::Kind::kSpan) {
    ++spans_;
    ++open_;
  } else {
    ++instants_;
  }
  records_.push_back(rec);
  return TraceContext{trace, rec.span_id};
}

TraceContext Tracer::begin_span(const char* name, TraceLane lane,
                                TraceContext parent,
                                std::initializer_list<TraceAttr> attrs) {
  return record(SpanRecord::Kind::kSpan, name, lane, parent, attrs);
}

void Tracer::end_span(const TraceContext& span,
                      std::initializer_list<TraceAttr> attrs) {
  if (span.span_id == 0) return;  // dropped at begin; already accounted
  std::lock_guard<std::mutex> lock{mu_};
  const double now = now_us();
  // Spans close in near-LIFO order; scan from the tail.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->span_id == span.span_id) {
      if (it->kind == SpanRecord::Kind::kSpan && it->dur_us < 0) {
        it->dur_us = now - it->ts_us;
        --open_;
        for (const auto& a : attrs) {
          if (it->nattrs >= kMaxTraceAttrs) break;
          it->attrs[it->nattrs++] = a;
        }
      }
      return;
    }
  }
}

TraceContext Tracer::instant(const char* name, TraceLane lane,
                             TraceContext parent,
                             std::initializer_list<TraceAttr> attrs) {
  return record(SpanRecord::Kind::kInstant, name, lane, parent, attrs);
}

void Tracer::flow(const TraceContext& from, TraceLane from_lane,
                  const TraceContext& to, TraceLane to_lane) {
  std::lock_guard<std::mutex> lock{mu_};
  const double now = now_us();
  if (records_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  SpanRecord rec;
  rec.kind = SpanRecord::Kind::kFlow;
  rec.lane = to_lane;
  rec.link_lane = from_lane;
  rec.trace_id = to.trace_id != 0 ? to.trace_id : from.trace_id;
  rec.span_id = ++next_span_;  // doubles as the chrome flow id
  rec.parent_span = to.span_id;
  rec.link_span = from.span_id;
  rec.name = "flow";
  rec.ts_us = now;
  rec.dur_us = 0;
  if (from.span_id == 0 || to.span_id == 0) {
    rec.orphan = true;  // an endpoint fell to the bounded buffer
    ++orphans_;
  }
  ++flows_;
  records_.push_back(rec);
}

TracerStats Tracer::stats() const {
  std::lock_guard<std::mutex> lock{mu_};
  TracerStats s;
  s.spans = spans_;
  s.instants = instants_;
  s.flows = flows_;
  s.dropped = dropped_;
  s.orphans = orphans_;
  s.open_spans = open_;
  s.max_events = max_events_;
  return s;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock{mu_};
  return records_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock{mu_};
  records_.clear();
  spans_ = instants_ = flows_ = dropped_ = orphans_ = open_ = 0;
}

std::string Tracer::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock{mu_};
  const double now = now_us();
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += "  ";
    out += event;
  };

  emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
       "\"args\": {\"name\": \"elmo_trace\"}}");
  for (std::size_t lane = 0; lane < kTraceLaneCount; ++lane) {
    std::string ev = "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                     "\"tid\": ";
    append_u64(ev, lane);
    ev += ", \"args\": {\"name\": \"";
    ev += to_string(static_cast<TraceLane>(lane));
    ev += "\"}}";
    emit(ev);
  }
  {
    // Accounting record the trace linter reconciles against the exported
    // event counts (scripts/lint_trace.py).
    std::string ev =
        "{\"name\": \"elmo_tracer_stats\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"spans\": ";
    append_u64(ev, spans_);
    ev += ", \"instants\": ";
    append_u64(ev, instants_);
    ev += ", \"flows\": ";
    append_u64(ev, flows_);
    ev += ", \"dropped\": ";
    append_u64(ev, dropped_);
    ev += ", \"orphans\": ";
    append_u64(ev, orphans_);
    ev += ", \"open_spans\": ";
    append_u64(ev, open_);
    ev += ", \"max_events\": ";
    append_u64(ev, max_events_);
    ev += "}}";
    emit(ev);
  }

  auto common_args = [&](std::string& ev, const SpanRecord& rec) {
    ev += "\"trace\": ";
    append_u64(ev, rec.trace_id);
    ev += ", \"span\": ";
    append_u64(ev, rec.span_id);
    ev += ", \"parent\": ";
    append_u64(ev, rec.parent_span);
    if (rec.orphan) ev += ", \"orphan\": 1";
    for (std::uint8_t i = 0; i < rec.nattrs; ++i) {
      ev += ", \"";
      ev += rec.attrs[i].key;
      ev += "\": ";
      append_attr_value(ev, rec.attrs[i].value);
    }
  };

  for (const auto& rec : records_) {
    std::string ev = "{\"name\": \"";
    ev += rec.name;
    ev += "\", ";
    switch (rec.kind) {
      case SpanRecord::Kind::kSpan: {
        const bool open = rec.dur_us < 0;
        ev += "\"ph\": \"X\", \"pid\": 1, \"tid\": ";
        append_u64(ev, static_cast<std::uint64_t>(rec.lane));
        ev += ", \"ts\": ";
        append_us(ev, rec.ts_us);
        ev += ", \"dur\": ";
        append_us(ev, open ? now - rec.ts_us : rec.dur_us);
        ev += ", \"args\": {";
        common_args(ev, rec);
        if (open) ev += ", \"open\": 1";
        ev += "}}";
        break;
      }
      case SpanRecord::Kind::kInstant: {
        ev += "\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": ";
        append_u64(ev, static_cast<std::uint64_t>(rec.lane));
        ev += ", \"ts\": ";
        append_us(ev, rec.ts_us);
        ev += ", \"args\": {";
        common_args(ev, rec);
        ev += "}}";
        break;
      }
      case SpanRecord::Kind::kFlow: {
        // Causal edge: "s" on the source lane, "f" on the destination lane,
        // paired by id (= the flow record's span id).
        std::string base = "\"cat\": \"causal\", \"id\": ";
        append_u64(base, rec.span_id);
        base += ", \"pid\": 1, \"ts\": ";
        append_us(base, rec.ts_us);
        base += ", \"args\": {\"trace\": ";
        append_u64(base, rec.trace_id);
        base += ", \"from_span\": ";
        append_u64(base, rec.link_span);
        base += ", \"to_span\": ";
        append_u64(base, rec.parent_span);
        if (rec.orphan) base += ", \"orphan\": 1";
        base += "}}";

        std::string s_ev = ev;  // "{\"name\": \"flow\", "
        s_ev += "\"ph\": \"s\", \"tid\": ";
        append_u64(s_ev, static_cast<std::uint64_t>(rec.link_lane));
        s_ev += ", ";
        s_ev += base;
        emit(s_ev);

        ev += "\"ph\": \"f\", \"bp\": \"e\", \"tid\": ";
        append_u64(ev, static_cast<std::uint64_t>(rec.lane));
        ev += ", ";
        ev += base;
        break;
      }
    }
    emit(ev);
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write(const std::string& path) const {
  const auto text = chrome_trace_json();
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stderr);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "Tracer: cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

void set_global_tracer(Tracer* tracer) noexcept {
  g_tracer.store(tracer, std::memory_order_relaxed);
}

Tracer* global_tracer() noexcept {
  return g_tracer.load(std::memory_order_relaxed);
}

}  // namespace elmo::obs
