#include "figlib.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include "net/headers.h"
#include "obs/metrics.h"
#include "util/rng.h"

#ifndef ELMO_BUILD_TYPE
#define ELMO_BUILD_TYPE "unknown"
#endif
#ifndef ELMO_GIT_SHA
#define ELMO_GIT_SHA "unknown"
#endif

namespace elmo::benchx {
namespace {

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string cpu_model() {
  std::ifstream cpuinfo{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        continue;
      }
      model += c;
    }
    const auto first = model.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    return model.substr(first, model.find_last_not_of(' ') - first + 1);
  }
  return "unknown";
}

}  // namespace

std::string host_json() {
  return "\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + compiler() + "\", \"build_type\": \"" +
         ELMO_BUILD_TYPE + "\", \"cpu_model\": \"" + cpu_model() +
         "\", \"git_sha\": \"" + ELMO_GIT_SHA + "\"";
}

Scale Scale::from_flags(const util::Flags& flags) {
  Scale scale;
  scale.pods = static_cast<std::size_t>(flags.get_int("pods", 12));
  scale.groups = static_cast<std::size_t>(flags.get_int("groups", 50'000));
  scale.tenants = static_cast<std::size_t>(flags.get_int(
      "tenants",
      std::max<std::int64_t>(
          20, static_cast<std::int64_t>(3000.0 * scale.groups / 1e6))));
  scale.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2019));
  scale.threads = static_cast<std::size_t>(std::max<std::int64_t>(
      1, flags.get_int("threads",
                       static_cast<std::int64_t>(util::default_thread_count()))));
  scale.metrics = flags.get_string("metrics", "");
  if (!scale.metrics.empty()) {
    obs::MetricsRegistry::global().set_enabled(true);
  }
  scale.encoder = flags.get_string("encoder", "elmo");
  scale.encoder_kind = parse_encoder_kind(scale.encoder);
  return scale;
}

cloud::CloudParams Scale::cloud_params(std::size_t colocation) const {
  cloud::CloudParams params;  // the paper's tenant distribution
  params.tenants = tenants;
  params.colocation = colocation;
  return params;
}

topo::ClosParams Scale::topo_params() const {
  auto params = topo::ClosParams::facebook_fabric();
  params.pods = pods;
  return params;
}

double FigureResult::overhead(std::size_t payload) const {
  const auto per_hop = net::kOuterHeaderBytes + payload;
  const double elmo_bytes =
      static_cast<double>(elmo_transmissions * per_hop +
                          elmo_header_wire_bytes);
  const double ideal_bytes =
      static_cast<double>(ideal_transmissions * per_hop);
  return ideal_bytes > 0 ? elmo_bytes / ideal_bytes : 1.0;
}

double FigureResult::unicast_ratio(std::size_t payload) const {
  (void)payload;  // unicast and ideal carry the same per-packet bytes
  return ideal_transmissions > 0
             ? static_cast<double>(unicast_transmissions) /
                   static_cast<double>(ideal_transmissions)
             : 1.0;
}

double FigureResult::overlay_ratio(std::size_t payload) const {
  (void)payload;
  return ideal_transmissions > 0
             ? static_cast<double>(overlay_transmissions) /
                   static_cast<double>(ideal_transmissions)
             : 1.0;
}

double FigureResult::overhead_without_popping(std::size_t payload) const {
  // Every hop would carry the full source header (mean over groups is a
  // fair stand-in because transmissions dominate large groups either way).
  const auto per_hop = net::kOuterHeaderBytes + payload;
  const double full_header = header_bytes.mean();
  const double elmo_bytes = static_cast<double>(elmo_transmissions) *
                            (static_cast<double>(per_hop) + full_header);
  const double ideal_bytes =
      static_cast<double>(ideal_transmissions * per_hop);
  return ideal_bytes > 0 ? elmo_bytes / ideal_bytes : 1.0;
}

namespace {

// Per-group state carried from the parallel passes into the in-order
// accumulation.
struct StagedGroup {
  std::unique_ptr<elmo::MulticastTree> tree;
  elmo::TrafficReport report;
  std::uint64_t unicast_tx = 0;
  std::uint64_t overlay_tx = 0;
  std::optional<baselines::LiTree> li_tree;
};

// Groups per encode_batch call. Like cloud::kPlacementRound this is a fixed
// constant, never derived from the thread count, so the merge sees the same
// chunk boundaries (and produces the same output) at any parallelism.
constexpr std::size_t kFigureChunk = 4096;

}  // namespace

FigureResult run_figure(const FigureInputs& inputs) {
  const auto& topology = inputs.topology;
  const elmo::TreeEncoder encoder{topology, inputs.config};
  elmo::SRuleSpace space{topology, inputs.config.srule_capacity};
  const elmo::TrafficEvaluator evaluator{topology};

  FigureResult result;
  const auto groups = inputs.workload.groups();
  result.groups_total = groups.size();
  const bool report_progress = groups.size() >= 200'000;
  std::size_t next_progress = groups.size() / 10;

  // Accumulates one group's contribution; called in group order only.
  auto accumulate = [&](const StagedGroup& sg,
                        const elmo::GroupEncoding& encoding) {
    if (!encoding.uses_default() && encoding.s_rule_count() == 0) {
      ++result.covered_p_rules_only;  // the Fig. 4/5 left-panel metric
    }
    if (!encoding.uses_default()) ++result.covered_without_default;
    if (encoding.s_rule_count() > 0) ++result.groups_with_srules;
    if (!sg.report.delivery.exactly_once()) ++result.delivery_failures;

    const auto& d = sg.report.delivery;
    result.duplicate_deliveries += d.duplicate_deliveries;
    result.spurious_deliveries += d.spurious_deliveries;
    result.excess_via_default += d.excess_via_default;
    result.excess_via_shared_prule += d.excess_via_shared_prule;
    result.excess_via_srule += d.excess_via_srule;
    result.excess_via_exact += d.excess_via_exact;
    {
      // Distinct leaf-layer egress bitmaps (p-rules + default).
      std::vector<const net::PortBitmap*> distinct;
      auto note = [&](const net::PortBitmap& bm) {
        for (const auto* seen : distinct) {
          if (*seen == bm) return;
        }
        distinct.push_back(&bm);
      };
      for (const auto& rule : encoding.leaf.p_rules) note(rule.bitmap);
      if (encoding.leaf.default_rule) note(*encoding.leaf.default_rule);
      result.leaf_egress_diversity.add(static_cast<double>(distinct.size()));
    }

    result.elmo_transmissions += sg.report.elmo_link_transmissions;
    result.elmo_header_wire_bytes +=
        sg.report.elmo_wire_bytes -
        sg.report.elmo_link_transmissions * net::kOuterHeaderBytes;
    result.ideal_transmissions += sg.report.ideal_link_transmissions;
    result.header_bytes.add(
        static_cast<double>(sg.report.header_bytes_at_source));
    result.unicast_transmissions += sg.unicast_tx;
    result.overlay_transmissions += sg.overlay_tx;
  };

  std::vector<StagedGroup> staged;
  for (std::size_t chunk = 0; chunk < groups.size(); chunk += kFigureChunk) {
    const std::size_t chunk_end =
        std::min(groups.size(), chunk + kFigureChunk);
    staged.clear();
    staged.resize(chunk_end - chunk);

    // --- tree build and encode, committed in group order against `space`
    elmo::BulkLoadStats bulk;
    const auto encodings = encoder.encode_batch(
        chunk_end - chunk,
        [&](std::size_t i) -> const elmo::MulticastTree& {
          auto& tree = staged[i].tree;
          tree = std::make_unique<elmo::MulticastTree>(
              topology, groups[chunk + i].member_hosts);
          return *tree;
        },
        space, inputs.pool, /*legacy_leaf=*/nullptr, &bulk);

    // --- parallel phase: traffic walk of the committed encodings,
    // baselines --------------------------------------------------------
    const auto t0 = std::chrono::steady_clock::now();
    util::parallel_for(inputs.pool, chunk, chunk_end, [&](std::size_t g) {
      const auto& group = groups[g];
      auto& sg = staged[g - chunk];
      auto rng = util::Rng::stream(inputs.seed, g);

      const auto sender =
          group.member_hosts[rng.index(group.member_hosts.size())];
      const auto eval_seed = rng();
      // payload 0: report factors as transmissions + header bytes, so any
      // packet size can be derived afterwards.
      sg.report = evaluator.evaluate(*sg.tree, encodings[g - chunk], sender,
                                     /*payload=*/0, eval_seed);
      sg.unicast_tx =
          baselines::unicast_traffic(topology, group.member_hosts, sender, 1)
              .link_transmissions;
      sg.overlay_tx =
          baselines::overlay_traffic(topology, group.member_hosts, sender, 1)
              .link_transmissions;
      if (inputs.li != nullptr) {
        sg.li_tree = inputs.li->build_tree(*sg.tree, rng());
      }
    });
    const auto t1 = std::chrono::steady_clock::now();

    // --- serial in-order accumulation ----------------------------------
    for (std::size_t g = chunk; g < chunk_end; ++g) {
      const auto& sg = staged[g - chunk];
      accumulate(sg, encodings[g - chunk]);
      if (sg.li_tree) inputs.li->install(*sg.li_tree);
      // The s-rule reservations stay in `space`: the occupancy after all
      // groups is the figure's center panel. (Encodings are discarded.)
    }
    const auto t2 = std::chrono::steady_clock::now();
    result.parallel_seconds +=
        bulk.encode_seconds + std::chrono::duration<double>(t1 - t0).count();
    result.merge_seconds +=
        bulk.merge_seconds + std::chrono::duration<double>(t2 - t1).count();

    if (report_progress && chunk_end >= next_progress) {
      std::fprintf(stderr, "  [run_figure] %zu/%zu groups (%.0f%%)\n",
                   chunk_end, groups.size(),
                   100.0 * static_cast<double>(chunk_end) /
                       static_cast<double>(groups.size()));
      next_progress += groups.size() / 10;
    }
  }

  result.leaf_srules = space.leaf_stats();
  result.spine_srules = space.spine_stats();
  {
    std::vector<double> leaf_occ;
    leaf_occ.reserve(space.leaf_occupancies().size());
    for (const auto o : space.leaf_occupancies()) {
      leaf_occ.push_back(static_cast<double>(o));
    }
    result.leaf_srule_p95 = util::percentile(leaf_occ, 95);
  }
  return result;
}

void PhaseTimer::start(const std::string& name) {
  stop();
  running_ = name;
  started_ = std::chrono::steady_clock::now();
}

void PhaseTimer::stop() {
  if (running_.empty()) return;
  add(running_, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started_)
                    .count());
  running_.clear();
}

void PhaseTimer::add(const std::string& name, double seconds) {
  for (auto& [n, s] : phases_) {
    if (n == name) {
      s += seconds;
      return;
    }
  }
  phases_.emplace_back(name, seconds);
}

std::string PhaseTimer::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f", i ? ", " : "",
                  phases_[i].first.c_str(), phases_[i].second);
    out += buf;
  }
  out += "}";
  return out;
}

void emit_run_json(const std::string& bench, const Scale& scale,
                   PhaseTimer& phases) {
  phases.stop();
  std::printf(
      "RUN {\"bench\": \"%s\", \"pods\": %zu, \"groups\": %zu, "
      "\"tenants\": %zu, \"seed\": %llu, \"threads\": %zu, "
      "\"encoder\": \"%s\", %s, \"phases\": %s}\n",
      bench.c_str(), scale.pods, scale.groups, scale.tenants,
      static_cast<unsigned long long>(scale.seed), scale.threads,
      scale.encoder.c_str(), host_json().c_str(), phases.json().c_str());
  // The metrics exposition goes to its own sink ("-" = stderr) so the
  // RUN-line/stdout contract of docs/BENCH_SCHEMA.md is untouched.
  if (!scale.metrics.empty()) {
    obs::write_metrics(scale.metrics,
                       obs::MetricsRegistry::global().snapshot());
  }
}

void print_figure(const std::string& title,
                  const topo::ClosTopology& topology,
                  const cloud::GroupWorkload& workload,
                  const elmo::EncoderConfig& base_config,
                  const std::vector<std::size_t>& redundancy_values,
                  util::ThreadPool* pool, PhaseTimer* phases) {
  using util::TextTable;
  std::cout << "=== " << title << " ===\n";

  baselines::LiMulticast li{topology};
  bool li_done = false;

  TextTable table{{"R", "groups p-rule-only", "s-rules/leaf mean (p95,max)",
                   "s-rules/spine mean (max)", "hdr bytes mean (min,max)",
                   "overhead 1500B", "overhead 64B"}};

  for (const auto r : redundancy_values) {
    auto config = base_config;
    config.redundancy_limit = r;
    FigureInputs inputs{topology, workload, config,
                        li_done ? nullptr : &li, /*seed=*/7, pool};
    const auto result = run_figure(inputs);
    li_done = true;
    if (phases != nullptr) {
      phases->add("R=" + std::to_string(r) + " encode+evaluate",
                  result.parallel_seconds);
      phases->add("R=" + std::to_string(r) + " merge",
                  result.merge_seconds);
    }

    if (result.delivery_failures > 0) {
      std::cout << "!! delivery failures: " << result.delivery_failures
                << "\n";
    }
    table.add_row(
        {std::to_string(r),
         TextTable::fmt_count(result.covered_p_rules_only) + " (" +
             TextTable::fmt_pct(
                 static_cast<double>(result.covered_p_rules_only) /
                 static_cast<double>(result.groups_total)) +
             "), no-dflt " +
             TextTable::fmt_pct(
                 static_cast<double>(result.covered_without_default) /
                 static_cast<double>(result.groups_total)),
         TextTable::fmt(result.leaf_srules.mean(), 1) + " (" +
             TextTable::fmt(result.leaf_srule_p95, 0) + ", " +
             TextTable::fmt(result.leaf_srules.max(), 0) + ")",
         TextTable::fmt(result.spine_srules.mean(), 1) + " (" +
             TextTable::fmt(result.spine_srules.max(), 0) + ")",
         TextTable::fmt(result.header_bytes.mean(), 1) + " (" +
             TextTable::fmt(result.header_bytes.min(), 0) + ", " +
             TextTable::fmt(result.header_bytes.max(), 0) + ")",
         TextTable::fmt(result.overhead(1500), 3),
         TextTable::fmt(result.overhead(64), 3)});

    if (r == redundancy_values.back()) {
      std::cout << table.render();
      std::cout << "baselines (transmission ratio vs ideal): unicast="
                << TextTable::fmt(result.unicast_ratio(64), 2)
                << "  overlay=" << TextTable::fmt(result.overlay_ratio(64), 2)
                << "\n";
      std::cout << "Li et al. group-table entries/leaf: mean="
                << TextTable::fmt(li.leaf_entries().mean(), 1)
                << " max=" << TextTable::fmt(li.leaf_entries().max(), 0)
                << " | /spine mean="
                << TextTable::fmt(li.spine_entries().mean(), 1)
                << " | /core mean="
                << TextTable::fmt(li.core_entries().mean(), 1) << "\n";
      std::cout << "D2d ablation, no per-hop popping: overhead(1500B)="
                << TextTable::fmt(result.overhead_without_popping(1500), 3)
                << " vs with popping "
                << TextTable::fmt(result.overhead(1500), 3) << "\n\n";
    }
  }
}

}  // namespace elmo::benchx
