// Controller bulk-encoding throughput vs thread count.
//
// Loads one workload into a fresh controller once per thread count and
// reports groups/sec for the whole create_groups pass (tree build +
// Algorithm 1 + s-rule merge), plus the encode/merge split that
// TreeEncoder::encode_batch, the one bulk encode create_groups calls,
// records in BulkLoadStats. Every parallel run's p/s-rule output is
// compared against the serial run's encodings — the determinism contract
// (DESIGN.md §5) says they must be byte-identical, and the bench fails
// loudly if they are not.
//
// Output is JSON on stdout (docs/BENCH_SCHEMA.md); the recorded snapshot is
// bench/results/BENCH_controller_scale.json. `--metrics=<path>` writes the
// registry's exposition of every run (the pool workers' writes included).
//
// Scale via env: ELMO_GROUPS (default 50,000; paper: 1,000,000), ELMO_PODS,
// ELMO_SEED, ELMO_THREAD_LIST (comma list, default "1,4,8").
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "elmo/controller.h"
#include "figlib.h"
#include "obs/metrics.h"

namespace {

using namespace elmo;

std::vector<std::size_t> parse_thread_list(const std::string& raw) {
  std::vector<std::size_t> counts;
  std::size_t value = 0;
  bool have = false;
  for (const char c : raw) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::size_t>(c - '0');
      have = true;
    } else if (have) {
      counts.push_back(std::max<std::size_t>(1, value));
      value = 0;
      have = false;
    }
  }
  if (have) counts.push_back(std::max<std::size_t>(1, value));
  if (counts.empty()) counts = {1, 4, 8};
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags{argc, argv};
  auto scale = benchx::Scale::from_flags(flags);
  const auto thread_list =
      parse_thread_list(flags.get_string("THREAD_LIST", "1,4,8"));

  const topo::ClosTopology topology{scale.topo_params()};
  util::Rng rng{scale.seed};
  util::ThreadPool workload_pool{scale.threads};
  const cloud::Cloud cloud{topology, scale.cloud_params(/*P=*/12), rng,
                           &workload_pool};
  cloud::WorkloadParams wp;
  wp.total_groups = scale.groups;
  const cloud::GroupWorkload workload{cloud, wp, rng, &workload_pool};

  // Member lists (roles from per-group streams) shared by every run.
  const auto groups = workload.groups();
  const std::uint64_t role_seed = rng();
  std::vector<std::vector<Member>> member_lists(groups.size());
  workload_pool.parallel_for(0, groups.size(), [&](std::size_t gi) {
    const auto& g = groups[gi];
    auto role_rng = util::Rng::stream(role_seed, gi);
    auto& members = member_lists[gi];
    members.reserve(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      members.push_back(Member{g.member_hosts[i], g.member_vms[i],
                               static_cast<MemberRole>(role_rng.index(3))});
    }
  });
  std::vector<Controller::GroupSpec> specs(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    specs[gi] = {groups[gi].tenant, member_lists[gi]};
  }

  struct Run {
    std::size_t threads = 0;
    double seconds = 0;
    double encode_seconds = 0;
    double merge_seconds = 0;
    std::size_t serial_reencodes = 0;
    bool matches_serial = true;
  };
  std::vector<Run> runs;

  // Serial reference first; its controller stays alive for the comparisons.
  Controller reference{topology, EncoderConfig{}};
  std::vector<GroupId> reference_ids;
  {
    Run run;
    run.threads = 1;
    Controller::BulkLoadStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    reference_ids = reference.create_groups(specs, /*pool=*/nullptr, &stats);
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    run.encode_seconds = stats.encode_seconds;
    run.merge_seconds = stats.merge_seconds;
    run.serial_reencodes = stats.serial_reencodes;
    runs.push_back(run);
    std::fprintf(stderr, "serial: %.2fs (%.0f groups/s)\n", run.seconds,
                 static_cast<double>(groups.size()) / run.seconds);
  }

  for (const auto threads : thread_list) {
    if (threads <= 1) continue;  // the serial reference covers 1
    Run run;
    run.threads = threads;
    util::ThreadPool pool{threads};
    Controller controller{topology, EncoderConfig{}};
    Controller::BulkLoadStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    const auto ids = controller.create_groups(specs, &pool, &stats);
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    run.encode_seconds = stats.encode_seconds;
    run.merge_seconds = stats.merge_seconds;
    run.serial_reencodes = stats.serial_reencodes;

    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!(controller.group(ids[i]).encoding ==
            reference.group(reference_ids[i]).encoding)) {
        run.matches_serial = false;
        break;
      }
    }
    if (!run.matches_serial) {
      std::fprintf(stderr,
                   "FATAL: %zu-thread encodings differ from serial\n",
                   threads);
      return 1;
    }
    runs.push_back(run);
    std::fprintf(stderr, "%zu threads: %.2fs (%.0f groups/s)\n", threads,
                 run.seconds,
                 static_cast<double>(groups.size()) / run.seconds);
  }

  const double serial_seconds = runs.front().seconds;
  std::printf("{\n  \"bench\": \"controller_scale\",\n"
              "  \"groups\": %zu,\n  \"pods\": %zu,\n  \"seed\": %llu,\n"
              "  %s,\n  \"results\": [\n",
              groups.size(), scale.pods,
              static_cast<unsigned long long>(scale.seed),
              benchx::host_json().c_str());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::printf(
        "    {\"threads\": %zu, \"seconds\": %.3f, \"groups_per_sec\": "
        "%.0f, \"speedup_vs_serial\": %.2f, \"encode_seconds\": %.3f, "
        "\"merge_seconds\": %.3f, \"serial_reencodes\": %zu, "
        "\"matches_serial\": %s}%s\n",
        r.threads, r.seconds,
        static_cast<double>(groups.size()) / r.seconds,
        serial_seconds / r.seconds, r.encode_seconds, r.merge_seconds,
        r.serial_reencodes, r.matches_serial ? "true" : "false",
        i + 1 < runs.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  if (!scale.metrics.empty() &&
      !obs::write_metrics(scale.metrics,
                          obs::MetricsRegistry::global().snapshot())) {
    return 1;
  }
  return 0;
}
