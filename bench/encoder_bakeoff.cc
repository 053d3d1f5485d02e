// Encoder bake-off (ISSUE 6): the same workload pushed through every
// TreeEncoder scheme — Elmo's Algorithm 1, the Bert-style member-clustering
// encoder, and the P3FA-style egress-diversity encoder — at full fabric
// scale, comparing four metric families per scheme:
//   1. header bytes per sender at the source (mean / min / max),
//   2. s-rule spill against the per-switch Fmax group-table budget,
//   3. delivery precision: duplicate + spurious copies and their cause
//      split (default p-rule / shared p-rule / shared s-rule),
//   4. encode throughput (groups/sec) over a shared pre-built tree sample.
//
// Human-readable tables go to stderr; the comparison lands as one JSON
// object on stdout (or in --out=PATH), followed by the usual RUN line —
// the recorded snapshot is bench/results/BENCH_encoder_bakeoff.json
// (docs/BENCH_SCHEMA.md):
//   ./build/bench/encoder_bakeoff --out=bench/results/BENCH_encoder_bakeoff.json
//
// Scale via env/flags: ELMO_GROUPS (default 50,000), ELMO_PODS (default 12
// = 27,648 hosts), ELMO_TENANTS, ELMO_SEED, ELMO_THREADS, plus
//   --fmax=N           per-switch group-table capacity (default 10,000)
//   --redundancy=R     R for schemes that honor it (default 12)
//   --encode_sample=N  trees in the throughput pass (default 10,000)
//   --out=PATH         write the JSON snapshot here instead of stdout
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "elmo/tree.h"
#include "figlib.h"

namespace {

using namespace elmo;

struct SchemeRun {
  EncoderKind kind = EncoderKind::kElmo;
  benchx::FigureResult figure;
  double encode_seconds = 0;
  std::size_t encode_sample = 0;
  double encode_groups_per_sec = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using util::TextTable;
  const util::Flags flags{argc, argv};
  const auto scale = benchx::Scale::from_flags(flags);
  const auto fmax =
      static_cast<std::size_t>(flags.get_int("FMAX", 10'000));
  const auto redundancy =
      static_cast<std::size_t>(flags.get_int("REDUNDANCY", 12));
  const auto encode_sample =
      static_cast<std::size_t>(flags.get_int("ENCODE_SAMPLE", 10'000));
  const auto out_path = flags.get_string("OUT", "");

  util::ThreadPool pool{scale.threads};
  benchx::PhaseTimer phases;

  const topo::ClosTopology topology{scale.topo_params()};
  util::Rng rng{scale.seed};
  phases.start("workload");
  const cloud::Cloud cloud{topology, scale.cloud_params(/*P=*/12), rng, &pool};
  cloud::WorkloadParams wp;
  wp.total_groups = scale.groups;
  const cloud::GroupWorkload workload{cloud, wp, rng, &pool};
  phases.stop();

  std::fprintf(stderr,
               "bake-off fabric: %zu hosts, %zu leaves, %zu groups, "
               "Fmax=%zu, R=%zu, %zu threads\n",
               topology.num_hosts(), topology.num_leaves(),
               workload.groups().size(), fmax, redundancy, pool.threads());

  // Shared tree sample for the encode-throughput pass: built once so every
  // scheme times pure encoding, not tree construction.
  phases.start("tree sample");
  const auto& groups = workload.groups();
  const std::size_t sample_n = std::min(encode_sample, groups.size());
  std::vector<std::unique_ptr<MulticastTree>> sample(sample_n);
  pool.parallel_for(0, sample_n, [&](std::size_t gi) {
    sample[gi] =
        std::make_unique<MulticastTree>(topology, groups[gi].member_hosts);
  });
  phases.stop();

  std::vector<SchemeRun> runs;
  for (const auto kind : kAllEncoderKinds) {
    SchemeRun run;
    run.kind = kind;

    EncoderConfig config;
    config.encoder = kind;
    config.redundancy_limit = redundancy;  // ignored by bert/p3fa
    config.srule_capacity = fmax;

    phases.start(std::string{to_string(kind)} + " figure");
    benchx::FigureInputs inputs{topology, workload, config, nullptr,
                                scale.seed, &pool};
    run.figure = benchx::run_figure(inputs);
    phases.stop();

    // Encode-only throughput over the shared sample (serial, no s-rule
    // space: measures the clustering algorithm itself).
    const TreeEncoder encoder{topology, config};
    phases.start(std::string{to_string(kind)} + " encode");
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& tree : sample) {
      const auto encoding = encoder.encode(*tree, /*space=*/nullptr);
      (void)encoding;
    }
    run.encode_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    phases.stop();
    run.encode_sample = sample_n;
    run.encode_groups_per_sec =
        run.encode_seconds > 0
            ? static_cast<double>(sample_n) / run.encode_seconds
            : 0;

    if (run.figure.delivery_failures != 0) {
      std::fprintf(stderr, "FATAL: %s dropped %zu member deliveries\n",
                   to_string(kind), run.figure.delivery_failures);
      return 1;
    }
    std::fprintf(stderr, "%s: figure pass done, %.0f groups/s encode\n",
                 to_string(kind), run.encode_groups_per_sec);
    runs.push_back(std::move(run));
  }

  const double n = static_cast<double>(groups.size());
  TextTable table{{"scheme", "header B mean (min,max)", "p-rule-only %",
                   "leaf s-rules mean/max vs Fmax", "excess/group (dup+spur)",
                   "leaf egress classes", "encode kgroups/s"}};
  for (const auto& run : runs) {
    const auto& f = run.figure;
    table.add_row(
        {to_string(run.kind),
         TextTable::fmt(f.header_bytes.mean(), 1) + " (" +
             TextTable::fmt(f.header_bytes.min(), 0) + "," +
             TextTable::fmt(f.header_bytes.max(), 0) + ")",
         TextTable::fmt(100.0 * static_cast<double>(f.covered_p_rules_only) /
                            n,
                        1),
         TextTable::fmt(f.leaf_srules.mean(), 1) + "/" +
             TextTable::fmt(f.leaf_srules.max(), 0) + " of " +
             std::to_string(fmax),
         TextTable::fmt(static_cast<double>(f.duplicate_deliveries +
                                            f.spurious_deliveries) /
                            n,
                        3) +
             " (" + std::to_string(f.duplicate_deliveries) + "+" +
             std::to_string(f.spurious_deliveries) + ")",
         TextTable::fmt(f.leaf_egress_diversity.mean(), 2),
         TextTable::fmt(run.encode_groups_per_sec / 1000.0, 1)});
  }
  std::fputs(table.render().c_str(), stderr);

  // Machine-readable snapshot (stdout, or the --out file).
  FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "FATAL: cannot open --out=%s\n", out_path.c_str());
      return 1;
    }
  }
  std::fprintf(out, "{\n  \"bench\": \"encoder_bakeoff\",\n"
              "  \"pods\": %zu,\n  \"hosts\": %zu,\n  \"groups\": %zu,\n"
              "  \"tenants\": %zu,\n  \"seed\": %llu,\n  \"fmax\": %zu,\n"
              "  \"redundancy\": %zu,\n  \"encode_sample\": %zu,\n"
              "  \"results\": [\n",
              scale.pods, topology.num_hosts(), groups.size(), scale.tenants,
              static_cast<unsigned long long>(scale.seed), fmax, redundancy,
              sample_n);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const auto& f = run.figure;
    std::fprintf(out,
        "    {\"encoder\": \"%s\",\n", to_string(run.kind));
    std::fprintf(out,
        "     \"header_bytes\": {\"mean\": %.2f, \"min\": %.0f, "
                "\"max\": %.0f},\n",
                f.header_bytes.mean(), f.header_bytes.min(),
                f.header_bytes.max());
    std::fprintf(out,
        
        "     \"srules\": {\"leaf_mean\": %.2f, \"leaf_max\": %.0f, "
        "\"leaf_p95\": %.1f, \"spine_mean\": %.2f, \"spine_max\": %.0f, "
        "\"groups_with_srules\": %zu, \"leaf_fmax_utilization\": %.4f},\n",
        f.leaf_srules.mean(), f.leaf_srules.max(), f.leaf_srule_p95,
        f.spine_srules.mean(), f.spine_srules.max(), f.groups_with_srules,
        f.leaf_srules.max() / static_cast<double>(fmax));
    std::fprintf(out,
        
        "     \"delivery\": {\"duplicates\": %llu, \"spurious\": %llu, "
        "\"via_default\": %llu, \"via_shared_prule\": %llu, "
        "\"via_srule\": %llu, \"via_exact\": %llu, \"failures\": %zu, "
        "\"excess_per_group\": %.4f},\n",
        static_cast<unsigned long long>(f.duplicate_deliveries),
        static_cast<unsigned long long>(f.spurious_deliveries),
        static_cast<unsigned long long>(f.excess_via_default),
        static_cast<unsigned long long>(f.excess_via_shared_prule),
        static_cast<unsigned long long>(f.excess_via_srule),
        static_cast<unsigned long long>(f.excess_via_exact),
        f.delivery_failures,
        static_cast<double>(f.duplicate_deliveries + f.spurious_deliveries) /
            n);
    std::fprintf(out,
        
        "     \"coverage\": {\"groups_total\": %zu, \"p_rules_only\": %zu, "
        "\"without_default\": %zu},\n",
        f.groups_total, f.covered_p_rules_only, f.covered_without_default);
    std::fprintf(out,
        "     \"leaf_egress_diversity\": {\"mean\": %.2f, "
                "\"max\": %.0f},\n",
                f.leaf_egress_diversity.mean(), f.leaf_egress_diversity.max());
    std::fprintf(out,
        "     \"encode\": {\"seconds\": %.3f, \"sample\": %zu, "
                "\"groups_per_sec\": %.0f}}%s\n",
                run.encode_seconds, run.encode_sample,
                run.encode_groups_per_sec, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (out != stdout) {
    std::fclose(out);
    std::fprintf(stderr, "snapshot written to %s\n", out_path.c_str());
  }
  benchx::emit_run_json("encoder_bakeoff", scale, phases);
  return 0;
}
