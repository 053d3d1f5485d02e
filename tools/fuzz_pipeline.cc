// Differential delivery-oracle fuzz driver.
//
// Plain mode walks SEEDS consecutive seeds (starting at BASE_SEED), runs
// each generated scenario through the full pipeline (Controller encode ->
// header codec -> streaming control plane delta installs -> sim::Fabric
// walk), and diffs every observable against the set-based DeliveryOracle,
// and the installed fabric state against the compiled rules after every
// membership or failure event. The first divergence prints its seed, shrinks
// to a minimal repro, and emits a ready-to-paste GoogleTest fixture — plus,
// alongside it, the failing scenario's metrics snapshot, chrome trace
// (send/hop, churn and install spans), and per-send
// decision-tree explanations (fuzz_seed_<N>.metrics.prom
// / .metrics.json / .trace.json / .explain.txt), so triage starts from
// counters and attributed deliveries instead of a rerun.
//
// Mutation mode (--mutate=1) validates the harness itself: every known
// fault in the catalog is seeded into the pipeline and MUST be caught by
// the differ on some seed — a mutation that survives means the harness has
// a blind spot and the run fails. With --churn_events the mutated
// scenarios carry the extra churn too.
//
// Flags (KEY=VALUE, --key=value, or ELMO_<KEY> env):
//   --seeds=N        seeds to walk (default 50)
//   --base_seed=N    first seed (default 1)
//   --seed=N         run exactly one seed (overrides --seeds)
//   --encoder=NAME   force every scenario onto one TreeEncoder
//                    (elmo / bert / p3fa; default: as generated per seed)
//   --mutate=1       run the mutation self-check instead of plain fuzzing
//   --shrink=0       disable shrinking on failure
//   --verbose=1      per-seed progress lines
//   --metrics=<path> aggregate telemetry over the whole campaign; written at
//                    exit ("-" = stderr, ".json" = JSON dump)
//   --trace=<path>   single-seed replay only: record one chrome://tracing
//                    timeline of the run (every send and its hops, churn,
//                    install and time-to-effect spans)
//   --artifacts=DIR  where failing-seed dumps land (default ".")
//   --churn_events=N append N extra churn events (join/leave-biased, with
//                    periodic sends) to every scenario (default 0)
//
// Replaying a CI failure: tools/fuzz_pipeline --seed=<reported seed>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "elmo/tree_encoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "verify/differ.h"
#include "verify/scenario.h"
#include "verify/shrink.h"

namespace {

using elmo::EncoderKind;
using elmo::verify::Mutation;
using elmo::verify::RunObservability;
using elmo::verify::RunReport;
using elmo::verify::Scenario;

struct Options {
  bool do_shrink = true;
  bool verbose = false;
  std::string metrics;    // campaign-wide exposition path; empty = off
  std::string trace;      // single-seed replay trace path; empty = off
  std::string artifacts = ".";
  // When set, every generated scenario is forced onto this encoder kind
  // (replaying a matrix-job failure, or isolating one scheme).
  std::optional<EncoderKind> encoder;
  // Extra churn events appended to every scenario (--churn_events=N).
  std::size_t churn_events = 0;
};

Scenario make_scenario(std::uint64_t seed, const Options& opt) {
  auto scenario = elmo::verify::generate_scenario(seed);
  if (opt.encoder) scenario.config.encoder = *opt.encoder;
  if (opt.churn_events > 0) {
    elmo::verify::append_churn_events(scenario, opt.churn_events);
  }
  return scenario;
}

// Re-runs the failing scenario with a private registry, tracer, and
// provenance capture, and dumps snapshot, trace, and per-send decision-tree
// explanations next to the shrunken fixture.
void dump_failure_artifacts(const Scenario& scenario, const Options& opt) {
  elmo::obs::MetricsRegistry registry{/*enabled=*/true};
  elmo::obs::Tracer tracer;
  std::vector<elmo::verify::SendCapture> captures;
  RunObservability observability{&registry, &captures};
  observability.tracer = &tracer;
  const auto replay =
      elmo::verify::run_scenario(scenario, Mutation::kNone, &observability);

  const auto stem = opt.artifacts + "/fuzz_seed_" +
                    std::to_string(scenario.seed) + "_" +
                    elmo::to_string(scenario.config.encoder);
  const auto snap = registry.snapshot();
  elmo::obs::write_metrics(stem + ".metrics.prom", snap);
  elmo::obs::write_metrics(stem + ".metrics.json", snap);
  tracer.write(stem + ".trace.json");

  std::ofstream explain{stem + ".explain.txt"};
  explain << "seed " << scenario.seed << ": " << replay.failure << "\n";
  if (!replay.explanation.empty()) {
    explain << "\n=== failing send ===\n" << replay.explanation;
  }
  for (const auto& capture : captures) {
    explain << "\n=== event #" << capture.event_index << ", group "
            << capture.group_index << ", from host " << capture.sender
            << " ===\n"
            << capture.explanation.render();
  }

  std::printf("failure artifacts: %s.metrics.prom, %s.metrics.json, "
              "%s.trace.json, %s.explain.txt\n",
              stem.c_str(), stem.c_str(), stem.c_str(), stem.c_str());
}

void report_failure(const Scenario& scenario, const RunReport& report,
                    const Options& opt) {
  std::printf("FAIL seed=%llu encoder=%s: %s\n",
              static_cast<unsigned long long>(scenario.seed),
              elmo::to_string(scenario.config.encoder),
              report.failure.c_str());
  std::string replay_extras;
  if (opt.encoder) {
    replay_extras += " --encoder=";
    replay_extras += elmo::to_string(*opt.encoder);
  }
  if (opt.churn_events > 0) {
    replay_extras += " --churn_events=" + std::to_string(opt.churn_events);
  }
  std::printf("replay: tools/fuzz_pipeline --seed=%llu%s\n",
              static_cast<unsigned long long>(scenario.seed),
              replay_extras.c_str());
  dump_failure_artifacts(scenario, opt);
  if (!opt.do_shrink) return;
  const auto minimal = elmo::verify::shrink(scenario);
  const auto shrunk = elmo::verify::run_scenario(minimal);
  std::printf("shrunk to %zu group(s), %zu event(s): %s\n",
              minimal.groups.size(), minimal.events.size(),
              shrunk.failure.c_str());
  std::printf("--- minimal repro fixture ---\n%s",
              elmo::verify::to_fixture(minimal).c_str());
}

int run_plain(std::uint64_t base, std::size_t seeds, const Options& opt) {
  elmo::obs::MetricsRegistry* registry = nullptr;
  if (!opt.metrics.empty()) {
    registry = &elmo::obs::MetricsRegistry::global();
    registry->set_enabled(true);
  }
  // Timeline export (DESIGN.md §15): single-seed replays with --trace
  // record every send's hops, churn spans, installs and time-to-effect
  // closures into one tracer.
  elmo::obs::Tracer tracer;
  const bool trace_on = !opt.trace.empty() && seeds == 1;
  if (trace_on) elmo::obs::set_global_tracer(&tracer);

  std::size_t sends = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = base + i;
    const auto scenario = make_scenario(seed, opt);
    RunObservability observability{registry};
    if (trace_on) observability.tracer = &tracer;
    const auto report = elmo::verify::run_scenario(
        scenario, Mutation::kNone,
        (registry != nullptr || trace_on) ? &observability : nullptr);
    if (!report.ok) {
      report_failure(scenario, report, opt);
      return 1;
    }
    sends += report.sends_checked;
    if (opt.verbose) {
      std::printf("seed=%llu ok (%zu events, %zu sends)\n",
                  static_cast<unsigned long long>(seed), report.events_run,
                  report.sends_checked);
    }
  }
  std::printf("fuzz_pipeline: %zu seed(s) ok, %zu sends diffed against the "
              "delivery oracle\n",
              seeds, sends);
  if (registry != nullptr) {
    elmo::obs::write_metrics(opt.metrics, registry->snapshot());
  }
  if (trace_on) {
    elmo::obs::set_global_tracer(nullptr);
    tracer.write(opt.trace);
  }
  return 0;
}

int run_mutations(std::uint64_t base, std::size_t max_scans,
                  const Options& opt) {
  const bool verbose = opt.verbose;
  int failures = 0;
  for (const auto mutation : elmo::verify::kAllMutations) {
    bool caught = false;
    std::uint64_t caught_seed = 0;
    std::size_t applied_runs = 0;
    for (std::size_t i = 0; i < max_scans && !caught; ++i) {
      const std::uint64_t seed = base + i;
      const auto scenario = make_scenario(seed, opt);
      const auto report = elmo::verify::run_scenario(scenario, mutation);
      if (report.applied) ++applied_runs;
      if (report.applied && !report.ok) {
        caught = true;
        caught_seed = seed;
        if (verbose) {
          std::printf("  %s caught at seed=%llu: %s\n",
                      elmo::verify::to_string(mutation),
                      static_cast<unsigned long long>(seed),
                      report.failure.c_str());
        }
      }
    }
    if (caught) {
      std::printf("mutation %-20s CAUGHT (seed=%llu, applied in %zu runs)\n",
                  elmo::verify::to_string(mutation),
                  static_cast<unsigned long long>(caught_seed), applied_runs);
    } else {
      std::printf("mutation %-20s SURVIVED %zu seeds (applied in %zu runs) — "
                  "the harness has a blind spot\n",
                  elmo::verify::to_string(mutation), max_scans, applied_runs);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const elmo::util::Flags flags{argc, argv};
  const auto base =
      static_cast<std::uint64_t>(flags.get_int("BASE_SEED", 1));
  const auto seeds = static_cast<std::size_t>(flags.get_int("SEEDS", 50));
  const auto single = flags.get_int("SEED", -1);
  const bool mutate = flags.get_bool("MUTATE", false);

  Options opt;
  opt.do_shrink = flags.get_bool("SHRINK", true);
  opt.verbose = flags.get_bool("VERBOSE", false);
  opt.metrics = flags.get_string("METRICS", "");
  opt.trace = flags.get_string("TRACE", "");
  opt.artifacts = flags.get_string("ARTIFACTS", ".");
  opt.churn_events =
      static_cast<std::size_t>(flags.get_int("CHURN_EVENTS", 0));
  if (const auto name = flags.get_string("ENCODER", ""); !name.empty()) {
    opt.encoder = elmo::parse_encoder_kind(name);
  }

  if (single >= 0) {
    opt.verbose = true;
    return run_plain(static_cast<std::uint64_t>(single), 1, opt);
  }
  if (mutate) {
    return run_mutations(base, seeds, opt);
  }
  return run_plain(base, seeds, opt);
}
