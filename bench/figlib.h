// Shared experiment harness for the paper's evaluation figures/tables.
//
// One pass over a group workload computes, per encoder configuration:
//   * how many groups are covered by non-default p-rules (Fig. 4/5 left),
//   * s-rule usage across leaf and spine switches (Fig. 4/5 center),
//   * traffic overhead vs ideal multicast for any packet size (Fig. 4/5
//     right) — the evaluator walk is payload-independent (transmissions +
//     header bytes), so 64 B and 1,500 B numbers come from the same walk,
//   * unicast / overlay baselines and the Li et al. group-table baseline,
//   * header-size distribution at the source.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/hostcast.h"
#include "baselines/li_multicast.h"
#include "cloud/cloud.h"
#include "elmo/evaluator.h"
#include "elmo/tree_encoder.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace elmo::benchx {

// Scale knobs (env ELMO_* overrides; see README).
struct Scale {
  std::size_t pods = 12;
  std::size_t groups = 50'000;
  std::size_t tenants = 3000;
  std::uint64_t seed = 2019;
  // Worker threads for workload generation and the encode/evaluate pass
  // (ELMO_THREADS / --threads; defaults to the hardware concurrency).
  // Results are bit-identical at any value — see DESIGN.md §5.
  std::size_t threads = 1;
  // --metrics=<path> (or ELMO_METRICS): when non-empty, from_flags enables
  // the global MetricsRegistry and emit_run_json writes the exposition there
  // ("-" = stderr, ".json" suffix = JSON dump). Empty = telemetry disabled.
  std::string metrics;
  // --encoder={elmo,bert,p3fa} (or ELMO_ENCODER): which TreeEncoder the
  // bench's EncoderConfig selects. Parsed strictly; unknown names throw.
  std::string encoder = "elmo";
  EncoderKind encoder_kind = EncoderKind::kElmo;

  static Scale from_flags(const util::Flags& flags);
  // Tenant population scaled to the group count so reduced runs stay
  // representative (1M groups <-> 3000 tenants in the paper).
  cloud::CloudParams cloud_params(std::size_t colocation) const;
  topo::ClosParams topo_params() const;
};

struct FigureResult {
  std::size_t groups_total = 0;
  std::size_t covered_p_rules_only = 0;   // no s-rules, no default (Fig. 4 left)
  std::size_t covered_without_default = 0;
  std::size_t groups_with_srules = 0;

  util::OnlineStats leaf_srules;   // per-switch occupancy after all groups
  util::OnlineStats spine_srules;
  double leaf_srule_p95 = 0;

  util::OnlineStats header_bytes;  // serialized size at the source

  // Payload-independent accounting (summed over one sender per group).
  std::uint64_t elmo_transmissions = 0;
  std::uint64_t elmo_header_wire_bytes = 0;  // sum of per-hop Elmo bytes
  std::uint64_t ideal_transmissions = 0;
  std::uint64_t unicast_transmissions = 0;
  std::uint64_t overlay_transmissions = 0;
  std::size_t delivery_failures = 0;  // must stay 0

  // Delivery-precision accounting (summed over one sender per group):
  // excess copies and their cause split, from the evaluator walk.
  std::uint64_t duplicate_deliveries = 0;
  std::uint64_t spurious_deliveries = 0;
  std::uint64_t excess_via_default = 0;
  std::uint64_t excess_via_shared_prule = 0;
  std::uint64_t excess_via_srule = 0;
  std::uint64_t excess_via_exact = 0;

  // Distinct egress bitmaps in the leaf layer per group (p-rules plus the
  // default rule) — the diversity P3FA-style encoders bound.
  util::OnlineStats leaf_egress_diversity;

  double overhead(std::size_t payload) const;
  double unicast_ratio(std::size_t payload) const;
  double overlay_ratio(std::size_t payload) const;
  // D2d ablation: traffic overhead if p-rules were NOT popped hop by hop.
  double overhead_without_popping(std::size_t payload) const;

  // Wall-time breakdown of the pass: the parallel encode and evaluate
  // phases vs the serial in-order merge and accumulation.
  double parallel_seconds = 0;
  double merge_seconds = 0;
};

struct FigureInputs {
  const topo::ClosTopology& topology;
  const cloud::GroupWorkload& workload;
  elmo::EncoderConfig config;
  // When set, also feed every group's tree into the Li et al. baseline.
  baselines::LiMulticast* li = nullptr;
  std::uint64_t seed = 1;
  // Runs the per-group encode/evaluate work on this pool (nullptr =
  // serial). Output is bit-identical either way: every group draws from
  // util::Rng::stream(seed, group index) and s-rule reservations are
  // committed in group order by TreeEncoder::encode_batch (DESIGN.md §5).
  util::ThreadPool* pool = nullptr;
};

FigureResult run_figure(const FigureInputs& inputs);

// Wall-clock phase breakdown every bench reports in its trailing run JSON
// (docs/BENCH_SCHEMA.md). Phases appear in insertion order; repeated names
// accumulate.
class PhaseTimer {
 public:
  // Starts timing `name`, closing any running phase.
  void start(const std::string& name);
  void stop();
  // Records an externally measured duration.
  void add(const std::string& name, double seconds);
  // {"workload": 1.23, "encode": 4.56, ...}
  std::string json() const;

 private:
  std::vector<std::pair<std::string, double>> phases_;
  std::string running_;
  std::chrono::steady_clock::time_point started_;
};

// The host block every bench's JSON records next to its timings, as object
// members without braces, to splice into an object:
//   "hardware_threads": 4, "compiler": "gcc 12.2.0",
//   "build_type": "RelWithDebInfo", "cpu_model": "Intel(R) Xeon(R) ...",
//   "git_sha": "be2d678305ad"
// hardware_threads is std::thread::hardware_concurrency(); build_type and
// git_sha (`git rev-parse --short=12 HEAD` when CMake configured the tree)
// come from ELMO_BUILD_TYPE and ELMO_GIT_SHA, which bench/CMakeLists.txt
// sets; cpu_model is the first `model name` of /proc/cpuinfo with any '"',
// '\\' or control character dropped. Each is "unknown" where it cannot be
// read. Compare timings only between runs whose blocks match.
std::string host_json();

// Prints the one-line run-metadata JSON ("RUN {...}") every bench emits
// last on stdout; see docs/BENCH_SCHEMA.md for the format.
void emit_run_json(const std::string& bench, const Scale& scale,
                   PhaseTimer& phases);

// Renders the three Fig. 4/5 panels for a set of R values. When `phases`
// is given, each R value's pass is recorded as a phase ("R=12").
void print_figure(const std::string& title, const topo::ClosTopology& topology,
                  const cloud::GroupWorkload& workload,
                  const elmo::EncoderConfig& base_config,
                  const std::vector<std::size_t>& redundancy_values,
                  util::ThreadPool* pool = nullptr,
                  PhaseTimer* phases = nullptr);

}  // namespace elmo::benchx
