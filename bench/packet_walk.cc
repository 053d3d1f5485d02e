// Forwarding-pipeline microbench: full fabric walks (hypervisor encap ->
// leaf/spine/core replication -> hypervisor decap) at group fanouts 8, 64
// and 512, reporting sends/sec and deep-copied bytes per send, plus the
// hosts reached and VM deliveries of one probe send.
//
// Bytes-copied accounting comes from net::copy_stats(): every deep copy of
// packet bytes (Packet copy construction, PacketView materialization) is
// counted globally. The zero-copy pipeline claim (ISSUE 1 / paper §4: "at
// hardware speed", no per-copy allocation) is exactly a claim about this
// number, so the bench records it per send alongside throughput.
//
// This bench is also the telemetry-overhead referee (DESIGN.md §9): every
// fanout is timed twice — global registry disabled, then enabled — and the
// JSON reports both throughputs plus the relative overhead. The budget is
// <= 2% metrics-off vs a build without the telemetry layer, <= 8% on.
//
// The host block (benchx::host_json) in the output header and RUN line
// records the producing host and build; the walk itself is single-threaded
// (DESIGN.md §12).
//
// --sample=1 (DESIGN.md §14) additionally ticks Fabric::sample_into into a
// health TimeSeriesStore once per 64 sends during the metrics-on leg, so
// metrics_on_overhead_pct doubles as the live-sampling overhead referee;
// bench/health_sweep measures the same path in isolation.
//
// Output is JSON on stdout, one object per fanout, closed by a `RUN {...}`
// metadata line; recorded snapshots live in bench/results/
// (BENCH_packet_walk_baseline.json = the seed deep-copy walk,
// BENCH_packet_walk.json = the CoW PacketView pipeline).
// --metrics=<path> writes the metrics-on exposition ("-" = stderr);
// --trace=<path> records one probe send per fanout (a "send" span with one
// child span per hop) into a chrome://tracing JSON file.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "elmo/controller.h"
#include "elmo/stream.h"
#include "figlib.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/fabric.h"
#include "topology/clos.h"
#include "util/flags.h"

namespace {

using namespace elmo;

struct RunResult {
  double sends_per_sec = 0;           // telemetry disabled
  double sends_per_sec_metrics_on = 0;
  double metrics_on_overhead_pct = 0;
  double bytes_copied_per_send = 0;
  double copies_per_send = 0;
  std::uint64_t wire_bytes_per_send = 0;
  std::uint64_t link_transmissions_per_send = 0;
  std::size_t hosts_reached = 0;
  std::uint64_t vm_deliveries = 0;    // payloads handed to member VMs
  std::uint64_t sampled_windows = 0;  // --sample=1: health windows closed
  std::size_t sampled_series = 0;     //             distinct series stored
};

RunResult run_fanout(std::size_t fanout, std::size_t payload_bytes,
                     std::size_t iterations, bool sample,
                     obs::Tracer* tracer) {
  // Two-tier leaf-spine: 32 leaves x 32 hosts = 1,024 hosts, enough for the
  // widest fanout while keeping fabric construction cheap.
  const topo::ClosTopology topology{topo::ClosParams::two_tier_leaf_spine()};
  Controller controller{topology, EncoderConfig{}};
  sim::Fabric fabric{topology};

  // Sender is host 0; receivers spread evenly over the whole fabric so the
  // walk exercises every replication layer.
  std::vector<Member> members;
  members.push_back(Member{0, 0, MemberRole::kBoth});
  const std::size_t stride = (topology.num_hosts() - 1) / fanout;
  for (std::size_t i = 0; i < fanout; ++i) {
    const auto host = static_cast<topo::HostId>(1 + i * stride);
    members.push_back(
        Member{host, static_cast<std::uint32_t>(i + 1), MemberRole::kReceiver});
  }
  const auto id = controller.create_group(0, members);
  stream::ControlPlane{controller, fabric}.sync(std::array{id});
  const auto group = controller.group(id).address;
  const std::vector<std::uint8_t> payload(payload_bytes, 0xab);

  // Warmup (and one accounted result for the static per-send numbers).
  const auto probe = fabric.send(0, group, payload);
  for (int i = 0; i < 3; ++i) (void)fabric.send(0, group, payload);

  auto& reg = obs::MetricsRegistry::global();
  const bool metrics_requested = reg.enabled();
  // Health sampling cadence: one window per 64 sends. Only the metrics-on
  // leg samples.
  obs::TimeSeriesStore store{64};
  constexpr std::size_t kSampleEvery = 64;
  auto timed_loop = [&](obs::TimeSeriesStore* ts) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      (void)fabric.send(0, group, payload);
      if (ts != nullptr && (i + 1) % kSampleEvery == 0) {
        fabric.sample_into(*ts);
        ts->advance();
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Leg 1: telemetry disabled — the number the zero-copy pipeline is judged
  // by, and the metrics-off overhead reference.
  reg.set_enabled(false);
  net::reset_copy_stats();
  const double off_elapsed = timed_loop(nullptr);
  const auto copies = net::copy_stats();
  const double bytes_copied =
      static_cast<double>(copies.bytes) / static_cast<double>(iterations);
  const double copy_count =
      static_cast<double>(copies.copies) / static_cast<double>(iterations);

  // Leg 2: telemetry enabled — same loop, counters and spans live, plus the
  // health sampling tick when --sample=1.
  reg.set_enabled(true);
  const double on_elapsed = timed_loop(sample ? &store : nullptr);
  if (metrics_requested) {
    accumulate_fabric_metrics(fabric, reg);
  }
  reg.set_enabled(metrics_requested);

  // One traced probe per fanout for the --trace timeline.
  if (tracer != nullptr) {
    fabric.set_recorder(tracer);
    (void)fabric.send(0, group, payload);
    fabric.set_recorder(nullptr);
  }

  RunResult r;
  r.sends_per_sec = static_cast<double>(iterations) / off_elapsed;
  r.sends_per_sec_metrics_on = static_cast<double>(iterations) / on_elapsed;
  r.metrics_on_overhead_pct =
      (off_elapsed > 0 ? (on_elapsed / off_elapsed - 1.0) * 100.0 : 0.0);
  r.bytes_copied_per_send = bytes_copied;
  r.copies_per_send = copy_count;
  r.wire_bytes_per_send = probe.total_wire_bytes;
  r.link_transmissions_per_send = probe.total_link_transmissions;
  r.hosts_reached = probe.host_copies.size();
  r.vm_deliveries = probe.vm_deliveries;
  r.sampled_windows = store.window();
  r.sampled_series = store.series_count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const elmo::util::Flags flags{argc, argv};
  const auto payload = static_cast<std::size_t>(std::max<std::int64_t>(
      0, flags.get_int("PAYLOAD", 256)));  // ELMO_PAYLOAD / PAYLOAD=...
  const auto scale = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("SCALE", 1)));
  const bool sample = flags.get_bool("SAMPLE", false);
  const auto metrics_path = flags.get_string("METRICS", "");
  const auto trace_path = flags.get_string("TRACE", "");

  auto& reg = elmo::obs::MetricsRegistry::global();
  if (!metrics_path.empty()) reg.set_enabled(true);
  elmo::obs::Tracer tracer;

  const auto host = elmo::benchx::host_json();
  std::printf("{\n  \"bench\": \"packet_walk\",\n  \"payload_bytes\": %zu,\n"
              "  %s,\n  \"results\": [\n",
              payload, host.c_str());
  const std::size_t fanouts[] = {8, 64, 512};
  const std::size_t iters[] = {4000 * scale, 1000 * scale, 200 * scale};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto r = run_fanout(fanouts[i], payload, iters[i], sample,
                              trace_path.empty() ? nullptr : &tracer);
    std::printf(
        "    {\"fanout\": %zu, \"sends_per_sec\": %.0f, "
        "\"sends_per_sec_metrics_on\": %.0f, "
        "\"metrics_on_overhead_pct\": %.1f, "
        "\"bytes_copied_per_send\": %.1f, \"copies_per_send\": %.2f, "
        "\"wire_bytes_per_send\": %llu, \"link_transmissions_per_send\": "
        "%llu, \"hosts_reached\": %zu, \"vm_deliveries\": %llu, "
        "\"sampled_windows\": %llu, \"sampled_series\": %zu}%s\n",
        fanouts[i], r.sends_per_sec, r.sends_per_sec_metrics_on,
        r.metrics_on_overhead_pct, r.bytes_copied_per_send, r.copies_per_send,
        static_cast<unsigned long long>(r.wire_bytes_per_send),
        static_cast<unsigned long long>(r.link_transmissions_per_send),
        r.hosts_reached, static_cast<unsigned long long>(r.vm_deliveries),
        static_cast<unsigned long long>(r.sampled_windows), r.sampled_series,
        i + 1 < 3 ? "," : "");
  }
  std::printf("  ]\n}\n");
  std::printf("RUN {\"bench\": \"packet_walk\", \"payload_bytes\": %zu, "
              "\"scale\": %zu, %s}\n",
              payload, scale, host.c_str());

  if (!metrics_path.empty()) {
    elmo::obs::write_metrics(metrics_path, reg.snapshot());
  }
  if (!trace_path.empty()) {
    tracer.write(trace_path);
  }
  return 0;
}
