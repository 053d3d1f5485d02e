// Causal trace explorer: "where did my join go?" (DESIGN.md §15).
//
// Replays one fuzz scenario's membership into a controller + fabric, then
// streams appended churn events through a traced stream::ControlPlane and
// renders the resulting causal traces as annotated span trees: each churn
// event's root span with its re-encode / delta-diff children, the flush and
// per-switch install spans it flowed into, the data-plane instant that
// closed its time-to-effect watch, and — for joins — the per-hop path the
// first delivered packet actually took, joined from the ProvenanceLog.
// Each traced send is a trace of its own: a "send" root with one child span
// per hop it took.
//
// Flags (KEY=VALUE, --key=value, or ELMO_<KEY> env):
//   --seed=N            scenario seed (default 1)
//   --churn_events=N    churn events appended to the scenario (default 24)
//   --flush_threshold=N plane batching (default 1 = install immediately)
//   --trace=N           only render trace N
//   --group=A           only render traces touching group address A (decimal)
//   --kind=K            only render traces whose root span name contains K
//                       (e.g. join, leave, host_fail, flush)
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
#include <set>
#include <string>
#include <vector>

#include "elmo/controller.h"
#include "elmo/stream.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "sim/fabric.h"
#include "topology/clos.h"
#include "util/flags.h"
#include "util/stats.h"
#include "verify/scenario.h"

namespace {

using namespace elmo;

// Salt under which the continuous-churn fuzz campaign extends scenarios;
// reusing it means a trace_query run shows exactly the events a
// `fuzz_pipeline --churn_events=N` run with the same seed would install.
constexpr std::uint64_t kChurnSalt = 0xc4;

struct TraceView {
  std::uint64_t id = 0;
  std::vector<const obs::SpanRecord*> records;  // chronological
  const obs::SpanRecord* root = nullptr;        // first parentless span
};

bool has_group_attr(const obs::SpanRecord& rec, double group) {
  for (std::uint8_t i = 0; i < rec.nattrs; ++i) {
    if (std::string_view{rec.attrs[i].key} == "group" &&
        rec.attrs[i].value == group) {
      return true;
    }
  }
  return false;
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

// First provenance trace that delivered `group` to `host` — the send that
// closed (or would have closed) the join's time-to-effect watch.
const obs::SendTrace* find_delivery(const obs::ProvenanceLog& prov,
                                    std::uint32_t group, std::uint32_t host,
                                    std::size_t& leaf_out) {
  for (const auto& send : prov.sends()) {
    if (send.group != group) continue;
    for (std::size_t i = 0; i < send.hops.size(); ++i) {
      const auto& hop = send.hops[i];
      if (hop.layer == topo::Layer::kHost && hop.node == host &&
          hop.decision.rule == obs::RuleClass::kHostDeliver) {
        leaf_out = i;
        return &send;
      }
    }
  }
  return nullptr;
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

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags{argc, argv};
  const auto seed = static_cast<std::uint64_t>(flags.get_int("SEED", 1));
  const auto churn =
      static_cast<std::size_t>(flags.get_int("CHURN_EVENTS", 24));
  const auto flush_threshold =
      static_cast<std::size_t>(flags.get_int("FLUSH_THRESHOLD", 1));
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
  const auto base_events = scenario.events.size();
  verify::append_churn_events(scenario, churn, kChurnSalt);

  const topo::ClosTopology topo{scenario.params};
  Controller controller{topo, scenario.config};
  sim::Fabric fabric{topo};
  auto legacy = scenario.legacy_leaves;
  if (!legacy.empty()) {
    legacy.resize(topo.num_leaves(), false);
    controller.set_legacy_leaves(legacy);
    for (topo::LeafId l = 0; l < topo.num_leaves(); ++l) {
      if (legacy[l]) fabric.leaf(l).set_legacy(true);
    }
  }

  // Membership-only replay of the base script (failures and sends are not
  // part of the state the churn extension was validated against).
  std::vector<GroupId> ids;
  std::vector<std::vector<Member>> membership;
  for (const auto& g : scenario.groups) {
    ids.push_back(
        controller.create_group(g.tenant, std::span<const Member>{g.members}));
    membership.push_back(g.members);
  }
  const auto forget = [&](std::size_t gi, topo::HostId host, std::uint32_t vm) {
    auto& members = membership[gi];
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](const Member& m) {
                                   return m.host == host && m.vm == vm;
                                 }),
                  members.end());
  };
  for (std::size_t i = 0; i < base_events; ++i) {
    const auto& ev = scenario.events[i];
    switch (ev.kind) {
      case verify::EventKind::kJoin:
        controller.join(ids.at(ev.group_index), ev.member);
        membership[ev.group_index].push_back(ev.member);
        break;
      case verify::EventKind::kLeave:
        controller.leave(ids.at(ev.group_index), ev.member.host, ev.member.vm);
        forget(ev.group_index, ev.member.host, ev.member.vm);
        break;
      case verify::EventKind::kHostFail:
        for (std::size_t gi = 0; gi < ids.size(); ++gi) {
          const auto members = membership[gi];  // copy: leave mutates
          for (const auto& m : members) {
            if (m.host != ev.member.host) continue;
            controller.leave(ids.at(gi), m.host, m.vm);
            forget(gi, m.host, m.vm);
          }
        }
        break;
      default:
        break;
    }
  }
  for (const auto id : ids) fabric.install_group(controller, id);

  // Live run: every appended event flows through the traced control plane;
  // sends walk the fabric (closing time-to-effect watches) with their hops
  // recorded into the same tracer and a provenance log for the data-plane
  // half of the story.
  obs::Tracer tracer;
  obs::ProvenanceLog prov;
  fabric.set_recorder(&tracer);
  fabric.set_provenance(&prov);
  stream::ControlPlane plane{controller, fabric,
                             stream::ControlPlaneOptions{flush_threshold}};
  for (const auto id : ids) plane.track_group(id);
  plane.set_tracer(&tracer);
  obs::set_global_tracer(&tracer);

  std::size_t sends = 0;
  for (std::size_t i = base_events; i < scenario.events.size(); ++i) {
    const auto& ev = scenario.events[i];
    switch (ev.kind) {
      case verify::EventKind::kJoin:
        plane.join(ids.at(ev.group_index), ev.member);
        break;
      case verify::EventKind::kLeave:
        plane.leave(ids.at(ev.group_index), ev.member.host, ev.member.vm);
        break;
      case verify::EventKind::kHostFail:
        plane.host_fail(ev.member.host);
        break;
      case verify::EventKind::kSend: {
        const auto& g = controller.group(ids.at(ev.group_index));
        (void)fabric.send(ev.sender, g.address, std::size_t{64});
        ++sends;
        break;
      }
      default:
        break;
    }
  }
  plane.flush();
  obs::set_global_tracer(nullptr);

  if (!trace_out.empty()) {
    if (!tracer.write(trace_out)) {
      std::fprintf(stderr, "trace_query: cannot write %s\n",
                   trace_out.c_str());
      return 2;
    }
  }

  // --- join the three stores -----------------------------------------------
  const auto records = tracer.snapshot();
  const auto stats = tracer.stats();
  const auto& tte = fabric.tte_records();

  std::map<std::uint64_t, TraceView> traces;
  std::map<std::uint64_t, const obs::SpanRecord*> by_span;
  std::multimap<std::uint64_t, const obs::SpanRecord*> children;
  std::vector<const obs::SpanRecord*> flows;
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
    } else if (view.root == nullptr &&
               rec.kind == obs::SpanRecord::Kind::kSpan) {
      view.root = &rec;
    }
  }

  std::map<std::uint64_t, std::vector<const obs::TteRecord*>> tte_by_trace;
  std::vector<double> join_us, leave_us;
  std::size_t stale_seen = 0;
  for (const auto& rec : tte) {
    tte_by_trace[rec.trace_id].push_back(&rec);
    if (rec.leave) {
      leave_us.push_back(rec.tte_seconds * 1e6);
      if (rec.stale_seen) ++stale_seen;
    } else {
      join_us.push_back(rec.tte_seconds * 1e6);
    }
  }

  if (json) {
    std::string out = "{\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"tool\": \"trace_query\",\n  \"seed\": %" PRIu64
                  ",\n  \"churn_events\": %zu,\n  \"sends\": %zu,\n",
                  seed, churn, sends);
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
    return 0;
  }

  std::printf("trace_query: seed=%" PRIu64
              " churn_events=%zu sends=%zu traces=%zu spans=%" PRIu64
              " flows=%" PRIu64 " dropped=%" PRIu64 " orphans=%" PRIu64 "\n",
              seed, churn, sends, traces.size(), stats.spans, stats.flows,
              stats.dropped, stats.orphans);
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
                        return has_group_attr(*r, g);
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
    // joins (the ProvenanceLog's half of the causal chain).
    if (const auto it = tte_by_trace.find(id); it != tte_by_trace.end()) {
      for (const auto* rec : it->second) {
        char line[128];
        if (rec->leave) {
          std::snprintf(line, sizeof(line),
                        "  ! tte: leave of host%u closed, last stale copy "
                        "%+.1fus%s\n",
                        rec->host, rec->tte_seconds * 1e6,
                        rec->stale_seen ? "" : " (no stale delivery)");
          out += line;
        } else {
          std::snprintf(line, sizeof(line),
                        "  ! tte: join of host%u -> first delivery after "
                        "%.1fus\n",
                        rec->host, rec->tte_seconds * 1e6);
          out += line;
          std::size_t leaf = 0;
          if (const auto* send = find_delivery(prov, rec->group, rec->host,
                                               leaf)) {
            out += "    via " + hop_path(*send, leaf) + "\n";
          }
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
  return 0;
}
