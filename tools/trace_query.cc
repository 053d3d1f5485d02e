// Causal trace explorer: "where did my join go?" (DESIGN.md §15).
//
// Runs one fuzz scenario (plus appended churn) through verify::run_scenario
// with a tracer and a send-capture tap attached, so the trace shows the run
// the differ actually checked: every membership, failure and restore event
// streamed through the run's traced stream::ControlPlane, and every diffed
// send. It then renders the resulting causal traces as annotated span trees:
// each event's root span with its re-encode / delta-diff children, the flush
// and per-switch install spans it flowed into, the data-plane instant that
// closed its time-to-effect watch, and — for joins — the per-hop path the
// first delivered packet actually took, read from that send's captured
// decision tree. Each traced send is a trace of its own: a "send" root with
// one child span per hop it took. A run that diverges from the oracle is
// reported (exit status 1).
//
// Flags (KEY=VALUE, --key=value, or ELMO_<KEY> env):
//   --seed=N            scenario seed (default 1)
//   --churn_events=N    churn events appended to the scenario (default 24):
//                       the script `fuzz_pipeline --seed=S --churn_events=N`
//                       checks
//   --trace=N           only render trace N
//   --group=A           only render traces touching group address A (decimal)
//   --kind=K            only render traces whose root span name contains K
//                       (e.g. join, leave, host_fail, fail_spine, flush)
//   --max_traces=N      cap rendered traces (default 16, 0 = unlimited)
//   --json=1            machine-readable summary instead of trees (CI)
//   --trace_out=PATH    also write the chrome://tracing timeline (churn,
//                       install and send/hop spans on one clock)
//
// Example: tools/trace_query --seed=3 --kind=join
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/provenance.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/stats.h"
#include "verify/differ.h"
#include "verify/scenario.h"

namespace {

using namespace elmo;

struct TraceView {
  std::uint64_t id = 0;
  std::vector<const obs::SpanRecord*> records;  // chronological
  const obs::SpanRecord* root = nullptr;        // first parentless span
};

// One closed time-to-effect watch, read back from its tte:* instant.
struct TteVerdict {
  bool leave = false;
  std::uint32_t group = 0;  // group address
  std::uint32_t host = 0;
  double tte_us = 0;
  bool stale_seen = false;
  // "send" roots recorded up to the instant. Records append in timestamp
  // order and the instant fires inside the send that closed the watch, so
  // that send is root number sends_before - 1, the same index as its
  // SendCapture (0: no send seen).
  std::size_t sends_before = 0;
};

std::optional<double> attr(const obs::SpanRecord& rec, std::string_view key) {
  for (std::uint8_t i = 0; i < rec.nattrs; ++i) {
    if (std::string_view{rec.attrs[i].key} == key) return rec.attrs[i].value;
  }
  return std::nullopt;
}

std::optional<TteVerdict> tte_verdict(const obs::SpanRecord& rec,
                                      std::size_t sends_before) {
  if (rec.kind != obs::SpanRecord::Kind::kInstant) return std::nullopt;
  const std::string_view name{rec.name};
  const bool leave = name == "tte:leave_closed";
  if (!leave && name != "tte:first_delivery") return std::nullopt;
  TteVerdict v;
  v.leave = leave;
  v.group = static_cast<std::uint32_t>(attr(rec, "group").value_or(0));
  v.host = static_cast<std::uint32_t>(attr(rec, "host").value_or(0));
  v.tte_us = attr(rec, "tte_us").value_or(0);
  v.stale_seen = attr(rec, "stale_seen").value_or(0) != 0;
  v.sends_before = sends_before;
  return v;
}

void append_attrs(std::string& out, const obs::SpanRecord& rec) {
  if (rec.nattrs == 0) return;
  out += " {";
  for (std::uint8_t i = 0; i < rec.nattrs; ++i) {
    if (i != 0) out += ", ";
    out += rec.attrs[i].key;
    out += "=";
    char buf[32];
    const double v = rec.attrs[i].value;
    if (v == static_cast<double>(static_cast<long long>(v))) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%g", v);
    }
    out += buf;
  }
  out += "}";
}

// One rendered line per span/instant, indented by tree depth.
void render_record(const obs::SpanRecord& rec, int depth, std::string& out) {
  char buf[160];
  out.append(static_cast<std::size_t>(2 + 2 * depth), ' ');
  if (rec.kind == obs::SpanRecord::Kind::kInstant) {
    std::snprintf(buf, sizeof(buf), "* %-22s [%s] @%.3fus", rec.name,
                  to_string(rec.lane), rec.ts_us);
  } else if (rec.dur_us < 0) {
    std::snprintf(buf, sizeof(buf), "- %-22s [%s] @%.3fus (still open)",
                  rec.name, to_string(rec.lane), rec.ts_us);
  } else {
    std::snprintf(buf, sizeof(buf), "- %-22s [%s] @%.3fus +%.3fus", rec.name,
                  to_string(rec.lane), rec.ts_us, rec.dur_us);
  }
  out += buf;
  append_attrs(out, rec);
  if (rec.orphan) out += "  (orphan: parent dropped)";
  out += "\n";
}

void render_subtree(
    const obs::SpanRecord& rec,
    const std::multimap<std::uint64_t, const obs::SpanRecord*>& children,
    int depth, std::string& out) {
  render_record(rec, depth, out);
  const auto [lo, hi] = children.equal_range(rec.span_id);
  for (auto it = lo; it != hi; ++it) {
    render_subtree(*it->second, children, depth + 1, out);
  }
}

// The root-to-delivery hop chain of `trace`, ending at hop `leaf`:
// "host3 -> leaf0[p-rule] -> spine2[upstream] -> leaf4[s-rule] -> host17".
std::string hop_path(const obs::SendTrace& trace, std::size_t leaf) {
  std::vector<std::size_t> chain;
  for (auto i = leaf; i != obs::kNoProvParent; i = trace.hops[i].parent) {
    chain.push_back(i);
  }
  std::reverse(chain.begin(), chain.end());
  std::string out;
  for (const auto i : chain) {
    const auto& hop = trace.hops[i];
    if (!out.empty()) out += " -> ";
    out += to_string(hop.layer) + std::to_string(hop.node);
    if (hop.decision.rule != obs::RuleClass::kNone &&
        hop.decision.rule != obs::RuleClass::kSource) {
      out += std::string{"["} + to_string(hop.decision.rule) + "]";
    }
  }
  return out;
}

// The hop of `send` that delivered a copy to `host`, if any.
std::optional<std::size_t> delivery_hop(const obs::SendTrace& send,
                                        std::uint32_t host) {
  for (std::size_t i = 0; i < send.hops.size(); ++i) {
    const auto& hop = send.hops[i];
    if (hop.layer == topo::Layer::kHost && hop.node == host &&
        hop.decision.rule == obs::RuleClass::kHostDeliver) {
      return i;
    }
  }
  return std::nullopt;
}

void append_json_tte(std::string& out, const char* key,
                     const std::vector<double>& us, std::size_t stale_seen,
                     bool leave) {
  char buf[256];
  const double p50 = us.empty() ? 0 : util::percentile(us, 50);
  const double p99 = us.empty() ? 0 : util::percentile(us, 99);
  const double mx = us.empty() ? 0 : *std::max_element(us.begin(), us.end());
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"closed\": %zu, \"p50_us\": %.3f, "
                "\"p99_us\": %.3f, \"max_us\": %.3f",
                key, us.size(), p50, p99, mx);
  out += buf;
  if (leave) {
    std::snprintf(buf, sizeof(buf), ", \"stale_seen\": %zu", stale_seen);
    out += buf;
  }
  out += "}";
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags{argc, argv};
  const auto seed = static_cast<std::uint64_t>(flags.get_int("SEED", 1));
  const auto churn =
      static_cast<std::size_t>(flags.get_int("CHURN_EVENTS", 24));
  const auto want_trace =
      static_cast<std::uint64_t>(flags.get_int("TRACE", 0));
  const auto want_group =
      static_cast<std::uint32_t>(flags.get_int("GROUP", 0));
  const auto want_kind = flags.get_string("KIND", "");
  const auto max_traces =
      static_cast<std::size_t>(flags.get_int("MAX_TRACES", 16));
  const bool json = flags.get_bool("JSON", false);
  const auto trace_out = flags.get_string("TRACE_OUT", "");

  auto scenario = verify::generate_scenario(seed);
  verify::append_churn_events(scenario, churn);

  // The differ's run, traced: the global tracer also catches the phase
  // spans, as in `fuzz_pipeline --trace`.
  obs::Tracer tracer;
  std::vector<verify::SendCapture> captures;
  verify::RunObservability observability;
  observability.captures = &captures;
  observability.tracer = &tracer;
  obs::set_global_tracer(&tracer);
  const auto report =
      verify::run_scenario(scenario, verify::Mutation::kNone, &observability);
  obs::set_global_tracer(nullptr);
  const int status = report.ok ? 0 : 1;

  if (!trace_out.empty()) {
    if (!tracer.write(trace_out)) {
      std::fprintf(stderr, "trace_query: cannot write %s\n",
                   trace_out.c_str());
      return 2;
    }
  }

  // --- join the tracer's records into traces --------------------------------
  const auto records = tracer.snapshot();
  const auto stats = tracer.stats();

  std::map<std::uint64_t, TraceView> traces;
  std::map<std::uint64_t, const obs::SpanRecord*> by_span;
  std::multimap<std::uint64_t, const obs::SpanRecord*> children;
  std::vector<const obs::SpanRecord*> flows;
  std::map<std::uint64_t, std::vector<TteVerdict>> tte_by_trace;
  std::vector<double> join_us, leave_us;
  std::size_t stale_seen = 0, sends_seen = 0;
  for (const auto& rec : records) {
    auto& view = traces[rec.trace_id];
    view.id = rec.trace_id;
    view.records.push_back(&rec);
    if (rec.kind == obs::SpanRecord::Kind::kFlow) {
      flows.push_back(&rec);
      continue;
    }
    by_span.emplace(rec.span_id, &rec);
    if (rec.parent_span != 0) {
      children.emplace(rec.parent_span, &rec);
    } else if (rec.kind == obs::SpanRecord::Kind::kSpan) {
      if (view.root == nullptr) view.root = &rec;
      if (std::string_view{rec.name} == "send") ++sends_seen;
    }
    if (const auto v = tte_verdict(rec, sends_seen)) {
      tte_by_trace[rec.trace_id].push_back(*v);
      if (v->leave) {
        leave_us.push_back(v->tte_us);
        if (v->stale_seen) ++stale_seen;
      } else {
        join_us.push_back(v->tte_us);
      }
    }
  }

  if (json) {
    std::string out = "{\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"tool\": \"trace_query\",\n  \"seed\": %" PRIu64
                  ",\n  \"churn_events\": %zu,\n  \"ok\": %s,\n",
                  seed, churn, report.ok ? "true" : "false");
    out += buf;
    if (!report.ok) {
      out += "  \"failure\": " + json_string(report.failure) + ",\n";
    }
    std::snprintf(buf, sizeof(buf), "  \"sends\": %zu,\n",
                  report.sends_checked);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"stats\": {\"spans\": %" PRIu64 ", \"instants\": %" PRIu64
                  ", \"flows\": %" PRIu64 ", \"dropped\": %" PRIu64
                  ", \"orphans\": %" PRIu64 ", \"open_spans\": %" PRIu64
                  "},\n",
                  stats.spans, stats.instants, stats.flows, stats.dropped,
                  stats.orphans, stats.open_spans);
    out += buf;
    std::snprintf(buf, sizeof(buf), "  \"traces\": %zu,\n  \"tte\": {\n",
                  traces.size());
    out += buf;
    append_json_tte(out, "join", join_us, 0, false);
    out += ",\n";
    append_json_tte(out, "leave", leave_us, stale_seen, true);
    out += "\n  },\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"summary\": {\"join_tte_closed\": %zu, "
                  "\"leave_tte_closed\": %zu}\n}\n",
                  join_us.size(), leave_us.size());
    out += buf;
    std::fputs(out.c_str(), stdout);
    return status;
  }

  std::printf("trace_query: seed=%" PRIu64
              " churn_events=%zu sends=%zu traces=%zu spans=%" PRIu64
              " flows=%" PRIu64 " dropped=%" PRIu64 " orphans=%" PRIu64 "\n",
              seed, churn, report.sends_checked, traces.size(), stats.spans,
              stats.flows, stats.dropped, stats.orphans);
  if (!report.ok) {
    std::printf("NOTE: scenario diverged: %s\n", report.failure.c_str());
  }
  if (!join_us.empty()) {
    std::printf("tte join:  %zu closed, p50=%.1fus p99=%.1fus\n",
                join_us.size(), util::percentile(join_us, 50),
                util::percentile(join_us, 99));
  }
  if (!leave_us.empty()) {
    std::printf("tte leave: %zu closed (%zu saw stale copies), "
                "p50=%.1fus p99=%.1fus\n",
                leave_us.size(), stale_seen, util::percentile(leave_us, 50),
                util::percentile(leave_us, 99));
  }
  std::printf("\n");

  std::size_t rendered = 0, suppressed = 0;
  for (const auto& [id, view] : traces) {
    if (want_trace != 0 && id != want_trace) continue;
    if (!want_kind.empty()) {
      const std::string root_name = view.root != nullptr ? view.root->name : "";
      if (root_name.find(want_kind) == std::string::npos) continue;
    }
    if (want_group != 0) {
      const double g = static_cast<double>(want_group);
      const bool touches =
          std::any_of(view.records.begin(), view.records.end(),
                      [&](const obs::SpanRecord* r) {
                        return attr(*r, "group") == g;
                      });
      if (!touches) continue;
    }
    if (max_traces != 0 && rendered >= max_traces) {
      ++suppressed;
      continue;
    }
    ++rendered;

    std::string out;
    char head[64];
    std::snprintf(head, sizeof(head), "trace %" PRIu64 "\n", id);
    out += head;
    for (const auto* rec : view.records) {
      if (rec->kind == obs::SpanRecord::Kind::kFlow) continue;
      // Roots only; children render inside their parent's subtree. Orphans
      // are parentless by construction, so they surface here too.
      if (rec->parent_span != 0) continue;
      render_subtree(*rec, children, 0, out);
    }
    // Causal edges touching this trace, both directions.
    for (const auto* f : flows) {
      const auto from = by_span.find(f->link_span);
      const auto to = by_span.find(f->parent_span);
      const bool from_here =
          from != by_span.end() && from->second->trace_id == id;
      const bool to_here = f->trace_id == id;
      if (!from_here && !to_here) continue;
      char line[192];
      if (from_here && !to_here) {
        std::snprintf(line, sizeof(line),
                      "  ~ flow: %s -> %s (trace %" PRIu64 ")\n",
                      from->second->name,
                      to != by_span.end() ? to->second->name : "?",
                      f->trace_id);
      } else if (to_here && !from_here) {
        std::snprintf(line, sizeof(line),
                      "  ~ flow: %s <- %s (trace %" PRIu64 ")\n",
                      to != by_span.end() ? to->second->name : "?",
                      from != by_span.end() ? from->second->name : "?",
                      from != by_span.end() ? from->second->trace_id : 0);
      } else {
        std::snprintf(line, sizeof(line), "  ~ flow: %s -> %s\n",
                      from->second->name,
                      to != by_span.end() ? to->second->name : "?");
      }
      out += line;
    }
    // Time-to-effect verdicts, with the delivering packet's hop path for
    // joins (the captured decision tree's half of the causal chain).
    if (const auto it = tte_by_trace.find(id); it != tte_by_trace.end()) {
      for (const auto& v : it->second) {
        char line[128];
        if (v.leave) {
          std::snprintf(line, sizeof(line),
                        "  ! tte: leave of host%u closed, last stale copy "
                        "%+.1fus%s\n",
                        v.host, v.tte_us,
                        v.stale_seen ? "" : " (no stale delivery)");
          out += line;
          continue;
        }
        std::snprintf(line, sizeof(line),
                      "  ! tte: join of host%u -> first delivery after "
                      "%.1fus\n",
                      v.host, v.tte_us);
        out += line;
        if (v.sends_before == 0 || v.sends_before > captures.size()) continue;
        const auto& send = captures[v.sends_before - 1].explanation.trace;
        if (send.group != v.group) continue;
        if (const auto hop = delivery_hop(send, v.host)) {
          out += "    via " + hop_path(send, *hop) + "\n";
        }
      }
    }
    out += "\n";
    std::fputs(out.c_str(), stdout);
  }
  if (suppressed != 0) {
    std::printf("(%zu more traces suppressed; --max_traces=0 for all)\n",
                suppressed);
  }
  if (rendered == 0) {
    std::printf("no traces matched the filter\n");
  }
  return status;
}
