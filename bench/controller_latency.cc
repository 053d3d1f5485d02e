// §5.1.3: "Elmo's controller computes p- and s-rules for a group within a
// millisecond" (their Python: 0.20 ms avg). This bench measures the full
// per-group pipeline (tree construction + Algorithm 1 for both layers) and
// its pieces on the Facebook-Fabric topology, across group sizes.
#include <benchmark/benchmark.h>

#include "dataplane/hypervisor_switch.h"
#include "elmo/controller.h"
#include "elmo/tree_encoder.h"
#include "util/rng.h"

namespace {

using namespace elmo;

const topo::ClosTopology& fabric() {
  static const topo::ClosTopology t{topo::ClosParams::facebook_fabric()};
  return t;
}

std::vector<topo::HostId> members_of_size(std::size_t size,
                                          std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<topo::HostId> hosts;
  hosts.reserve(size);
  for (const auto h : rng.sample_indices(fabric().num_hosts(), size)) {
    hosts.push_back(static_cast<topo::HostId>(h));
  }
  return hosts;
}

void BM_TreeBuild(benchmark::State& state) {
  const auto members =
      members_of_size(static_cast<std::size_t>(state.range(0)), 99);
  for (auto _ : state) {
    MulticastTree tree{fabric(), members};
    benchmark::DoNotOptimize(tree.num_leaves());
  }
}
BENCHMARK(BM_TreeBuild)->Arg(5)->Arg(60)->Arg(700)->Arg(5000);

void BM_EncodeGroup(benchmark::State& state) {
  // Tree + Algorithm 1 for both layers + s-rule reservations: the
  // controller's whole per-group computation.
  const auto members =
      members_of_size(static_cast<std::size_t>(state.range(0)), 7);
  EncoderConfig cfg;
  cfg.redundancy_limit = 12;
  const TreeEncoder encoder{fabric(), cfg};
  SRuleSpace space{fabric(), 1 << 20};
  for (auto _ : state) {
    const MulticastTree tree{fabric(), members};
    auto encoding = encoder.encode(tree, &space);
    benchmark::DoNotOptimize(encoding.p_rule_count());
    encoder.release(encoding, space);
  }
  state.SetLabel("paper budget: < 1 ms per group");
}
BENCHMARK(BM_EncodeGroup)->Arg(5)->Arg(60)->Arg(178)->Arg(700)->Arg(5000);

void BM_SenderRoute(benchmark::State& state) {
  const auto members = members_of_size(60, 3);
  const MulticastTree tree{fabric(), members};
  for (auto _ : state) {
    auto enc = tree.sender_encoding(members[0]);
    benchmark::DoNotOptimize(enc.u_leaf.multipath);
  }
}
BENCHMARK(BM_SenderRoute);

void BM_HeaderSerialize(benchmark::State& state) {
  const auto members =
      members_of_size(static_cast<std::size_t>(state.range(0)), 5);
  const MulticastTree tree{fabric(), members};
  EncoderConfig cfg;
  cfg.redundancy_limit = 12;
  const TreeEncoder encoder{fabric(), cfg};
  const auto encoding = encoder.encode(tree, nullptr);
  const auto sender_enc = tree.sender_encoding(members[0]);
  for (auto _ : state) {
    auto bytes = encoder.codec().serialize(sender_enc, encoding);
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_HeaderSerialize)->Arg(60)->Arg(700);

void BM_HeaderParse(benchmark::State& state) {
  const auto members =
      members_of_size(static_cast<std::size_t>(state.range(0)), 5);
  const MulticastTree tree{fabric(), members};
  EncoderConfig cfg;
  cfg.redundancy_limit = 12;
  const TreeEncoder encoder{fabric(), cfg};
  const auto encoding = encoder.encode(tree, nullptr);
  const auto bytes =
      encoder.codec().serialize(tree.sender_encoding(members[0]), encoding);
  for (auto _ : state) {
    auto parsed = encoder.codec().parse(bytes);
    benchmark::DoNotOptimize(parsed.leaf_rules.size());
  }
}
BENCHMARK(BM_HeaderParse)->Arg(60)->Arg(700);

void BM_ChurnEvent(benchmark::State& state) {
  // One join + one leave through the controller (re-encode + diff).
  Controller controller{fabric(), EncoderConfig{}};
  const auto members = members_of_size(60, 11);
  std::vector<Member> ms;
  for (std::size_t i = 0; i < members.size(); ++i) {
    ms.push_back(Member{members[i], static_cast<std::uint32_t>(i),
                        MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, ms);
  const Member extra{members_of_size(1, 1234)[0], 9999, MemberRole::kBoth};
  for (auto _ : state) {
    controller.join(id, extra);
    controller.leave(id, extra.host, extra.vm);
  }
}
BENCHMARK(BM_ChurnEvent);

void BM_HypervisorFlowInstall(benchmark::State& state) {
  // Hypervisor switches absorb Elmo's reconfiguration load; the paper cites
  // 40K updates/sec as the budget [76, 97]. Measure our install path.
  dp::HypervisorSwitch hv{fabric(), 0};
  dp::HypervisorSwitch::GroupFlow flow;
  flow.vni = 1;
  flow.elmo_header.assign(114, 0x55);
  flow.local_vms = {1, 2, 3};
  std::uint32_t next = 0;
  for (auto _ : state) {
    hv.install_flow(net::Ipv4Address::multicast_group(next++ & 0xfffff),
                    flow);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("paper budget: 40K updates/s per hypervisor");
}
BENCHMARK(BM_HypervisorFlowInstall);

}  // namespace

BENCHMARK_MAIN();
