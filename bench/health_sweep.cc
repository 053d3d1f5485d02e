// Gray-failure detection-latency bench (DESIGN.md §14): for each failure
// class, inject the failure mid-run across a seed sweep and measure how many
// sampling windows the HealthMonitor needs to raise the matching incident,
// plus the false-positive rate on clean runs.
//
// Arms (all on the two-tier 1,024-host fabric at fanout 512, the widest
// packet_walk configuration):
//   clean        no injection — ANY incident is a false positive
//   loss_1pct    global gray loss 1% (per-seed loss stream)
//   loss_3pct    global gray loss 3%
//   fail_link    one leaf<->spine link black-holed (100% directed loss)
//   stuck_spine  every spine silently downed: ingress continues, egress zero
//   churn_lag    synthetic install-lag p99 series stepping past its budget
//
// The sweep also times the sampling hot path itself: the fanout-512 send()
// loop with and without a Fabric::sample_into + advance every 64 sends,
// reported as sampling_overhead_pct against the existing ±8% telemetry
// budget.
//
// Output is JSON on stdout (recorded as bench/results/BENCH_health_sweep.json)
// closed by a `RUN {...}` metadata line on stderr so a stdout redirect
// captures clean JSON.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "elmo/controller.h"
#include "elmo/stream.h"
#include "obs/health.h"
#include "obs/timeseries.h"
#include "sim/fabric.h"
#include "topology/clos.h"
#include "util/flags.h"

namespace {

using namespace elmo;

enum class Arm { kClean, kLoss1, kLoss3, kFailLink, kStuckSpine, kChurnLag };

struct ArmSpec {
  Arm arm;
  const char* name;
  const char* expected_class;  // empty for the clean arm
};

constexpr ArmSpec kArms[] = {
    {Arm::kClean, "clean", ""},
    {Arm::kLoss1, "loss_1pct", "link-loss"},
    {Arm::kLoss3, "loss_3pct", "link-loss"},
    {Arm::kFailLink, "fail_link", "link-loss"},
    {Arm::kStuckSpine, "stuck_spine", "stuck-element"},
    {Arm::kChurnLag, "churn_lag", "churn-lag"},
};

struct SeedOutcome {
  bool detected = false;
  std::size_t windows_to_detect = 0;  // first post-injection window == 1
  std::size_t false_positives = 0;    // incidents opened before injection
};

struct Bench {
  topo::ClosTopology topology{topo::ClosParams::two_tier_leaf_spine()};
  Controller controller;
  sim::Fabric fabric;
  net::Ipv4Address group;
  double expected_per_send = 0;

  explicit Bench(std::size_t fanout)
      : controller{topology, EncoderConfig{}}, fabric{topology} {
    std::vector<Member> members;
    members.push_back(Member{0, 0, MemberRole::kBoth});
    const std::size_t stride = (topology.num_hosts() - 1) / fanout;
    for (std::size_t i = 0; i < fanout; ++i) {
      members.push_back(Member{static_cast<topo::HostId>(1 + i * stride),
                               static_cast<std::uint32_t>(i + 1),
                               MemberRole::kReceiver});
    }
    const auto id = controller.create_group(0, members);
    stream::ControlPlane{controller, fabric}.sync(std::array{id});
    group = controller.group(id).address;
    // The clean fabric's per-send delivery count IS the analytic expectation
    // for this static group (cross-validated by the differ's evaluator diff).
    expected_per_send =
        static_cast<double>(fabric.send(0, group, std::size_t{64}).vm_deliveries);
  }
};

SeedOutcome run_seed(Arm arm, std::uint64_t seed, std::size_t fanout,
                     std::size_t windows, std::size_t sends_per_window,
                     std::size_t inject_at) {
  Bench b{fanout};
  obs::TimeSeriesStore store{64};
  obs::HealthMonitor monitor{store};
  obs::add_default_detectors(monitor);
  const char* expected_class = "";
  for (const auto& spec : kArms) {
    if (spec.arm == arm) expected_class = spec.expected_class;
  }

  SeedOutcome out;
  double expected_total = 0;
  double lag_p99 = 0.010;  // within the 50ms budget
  bool injected = false;
  for (std::size_t w = 0; w < windows; ++w) {
    if (!injected && w >= inject_at) {
      injected = true;
      switch (arm) {
        case Arm::kClean:
          break;
        case Arm::kLoss1:
          b.fabric.set_loss(0.01, seed);
          break;
        case Arm::kLoss3:
          b.fabric.set_loss(0.03, seed);
          break;
        case Arm::kFailLink: {
          // Black-hole every spine's link into one seed-rotated leaf (the
          // single flow rides exactly one spine, so downing one specific
          // spine->leaf pair would usually miss the data path). At fanout
          // 512 every leaf hosts receivers, so the deficit is guaranteed.
          const auto leaf = static_cast<topo::LeafId>(
              1 + seed % (b.topology.num_leaves() - 1));
          const sim::NodeRef l{topo::Layer::kLeaf, leaf};
          for (topo::SpineId sp = 0; sp < b.topology.num_spines(); ++sp) {
            b.fabric.set_link_loss(sim::NodeRef{topo::Layer::kSpine, sp}, l,
                                   1.0);
          }
          break;
        }
        case Arm::kStuckSpine:
          for (topo::SpineId s = 0; s < b.topology.num_spines(); ++s) {
            b.fabric.spine(s).set_down(true);
          }
          break;
        case Arm::kChurnLag:
          lag_p99 = 0.120;  // > 2x the 50ms budget: critical regression
          break;
      }
    }
    for (std::size_t i = 0; i < sends_per_window; ++i) {
      (void)b.fabric.send(0, b.group, std::size_t{64});
      expected_total += b.expected_per_send;
    }
    b.fabric.sample_into(store);
    store.append("elmo_expect_vm_deliveries_total", expected_total);
    store.append("elmo_stream_install_lag_p99_seconds", lag_p99);
    store.advance();
    const auto opened = monitor.tick();
    if (w < inject_at) {
      out.false_positives += opened.size();
    } else if (arm == Arm::kClean) {
      out.false_positives += opened.size();
    } else if (!out.detected && monitor.has_incident(expected_class)) {
      out.detected = true;
      out.windows_to_detect = w - inject_at + 1;
    }
  }
  return out;
}

// Sampling-overhead referee: the fanout-512 send() loop with a
// sample_into + advance every `sample_every` sends versus without. Must stay
// within the ±8% budget the metrics-on walk already honors.
double sampling_overhead_pct(std::size_t iterations, std::size_t sample_every) {
  Bench b{512};
  obs::TimeSeriesStore store{64};

  auto timed = [&](bool sample) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      (void)b.fabric.send(0, b.group, std::size_t{64});
      if (sample && (i + 1) % sample_every == 0) {
        b.fabric.sample_into(store);
        store.advance();
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  (void)timed(true);  // warm caches and the store's series map
  const double off = timed(false);
  const double on = timed(true);
  return off > 0 ? (on / off - 1.0) * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags{argc, argv};
  const auto seeds = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("SEEDS", 5)));
  const auto windows = static_cast<std::size_t>(
      std::max<std::int64_t>(6, flags.get_int("WINDOWS", 10)));
  const auto sends_per_window = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("SENDS", 8)));
  const auto inject_at = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("INJECT_AT", 3)));
  const auto fanout = static_cast<std::size_t>(
      std::max<std::int64_t>(8, flags.get_int("FANOUT", 512)));
  const auto overhead_iters = static_cast<std::size_t>(
      std::max<std::int64_t>(64, flags.get_int("OVERHEAD_ITERS", 192)));

  std::printf("{\n  \"bench\": \"health_sweep\",\n  \"fanout\": %zu,\n"
              "  \"seeds\": %zu,\n  \"windows\": %zu,\n"
              "  \"sends_per_window\": %zu,\n  \"inject_at\": %zu,\n"
              "  \"arms\": [\n",
              fanout, seeds, windows, sends_per_window, inject_at);

  bool ok = true;
  for (std::size_t a = 0; a < std::size(kArms); ++a) {
    const auto& spec = kArms[a];
    std::size_t detected = 0;
    std::size_t fp = 0;
    std::size_t detect_sum = 0;
    std::size_t detect_max = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto o = run_seed(spec.arm, 1000 + s, fanout, windows,
                              sends_per_window, inject_at);
      fp += o.false_positives;
      if (o.detected) {
        ++detected;
        detect_sum += o.windows_to_detect;
        detect_max = std::max(detect_max, o.windows_to_detect);
      }
    }
    const bool is_clean = spec.arm == Arm::kClean;
    const double fp_rate =
        static_cast<double>(fp) / static_cast<double>(seeds);
    const double mean_detect =
        detected > 0 ? static_cast<double>(detect_sum) /
                           static_cast<double>(detected)
                     : 0.0;
    // Acceptance: clean arm raises nothing; every failure arm detects the
    // expected class on every seed within 5 windows of injection.
    if (is_clean) {
      ok = ok && fp == 0;
    } else {
      ok = ok && detected == seeds && fp == 0 && detect_max <= 5;
    }
    std::printf(
        "    {\"arm\": \"%s\", \"expected_class\": \"%s\", "
        "\"seeds\": %zu, \"detected\": %zu, "
        "\"mean_windows_to_detect\": %.2f, \"max_windows_to_detect\": %zu, "
        "\"false_positives\": %zu, \"false_positive_rate\": %.3f}%s\n",
        spec.name, spec.expected_class, seeds, detected, mean_detect,
        detect_max, fp, fp_rate, a + 1 < std::size(kArms) ? "," : ",");
  }

  const double overhead = sampling_overhead_pct(overhead_iters, 64);
  const bool overhead_ok = overhead <= 8.0;
  ok = ok && overhead_ok;
  std::printf("    {\"arm\": \"sampling_overhead\", "
              "\"sampling_overhead_pct\": %.2f, \"budget_pct\": 8.0, "
              "\"within_budget\": %s}\n  ],\n  \"ok\": %s\n}\n",
              overhead, overhead_ok ? "true" : "false",
              ok ? "true" : "false");
  std::fprintf(stderr,
               "RUN {\"bench\": \"health_sweep\", \"fanout\": %zu, "
               "\"seeds\": %zu, \"windows\": %zu, \"ok\": %s}\n",
               fanout, seeds, windows, ok ? "true" : "false");
  return ok ? 0 : 1;
}
