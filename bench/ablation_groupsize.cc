// Ablation: how Elmo's encoding scales with group size (not a paper figure,
// but the mechanism behind Fig. 4/5: which groups fit p-rules, when s-rules
// kick in, what the header costs).
//
// For controlled group sizes on the full fabric, reports header bytes,
// p-/s-rule counts and traffic overhead, for clustered and dispersed
// members, at R = 0 and R = 12.
#include <iostream>

#include "figlib.h"

namespace {

using namespace elmo;
using util::TextTable;

std::vector<topo::HostId> make_members(const topo::ClosTopology& t,
                                       std::size_t size, bool clustered,
                                       util::Rng& rng) {
  std::vector<topo::HostId> hosts;
  if (clustered) {
    // Fill racks sequentially from a random leaf (P=12-like).
    const auto start_leaf = rng.index(t.num_leaves());
    std::size_t leaf = start_leaf;
    while (hosts.size() < size) {
      for (std::size_t port = 0;
           port < std::min<std::size_t>(12, t.leaf_down_ports()) &&
           hosts.size() < size;
           ++port) {
        hosts.push_back(t.host_at(leaf % t.num_leaves(), port));
      }
      ++leaf;
    }
  } else {
    for (const auto h : rng.sample_indices(t.num_hosts(), size)) {
      hosts.push_back(static_cast<topo::HostId>(h));
    }
  }
  return hosts;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags{argc, argv};
  const auto scale = benchx::Scale::from_flags(flags);
  const topo::ClosTopology topology{scale.topo_params()};
  const TrafficEvaluator evaluator{topology};

  TextTable table{{"members", "placement", "R", "leaves", "pods",
                   "hdr bytes", "p-rules", "s-rules", "overhead 1500B"}};

  for (const bool clustered : {true, false}) {
    for (const std::size_t size : {5u, 20u, 60u, 178u, 700u, 2000u, 5000u}) {
      for (const std::size_t r : {0u, 12u}) {
        util::Rng rng{scale.seed + size};
        EncoderConfig cfg;
        cfg.redundancy_limit = r;
        const TreeEncoder encoder{topology, cfg};
        SRuleSpace space{topology, 1 << 20};

        util::OnlineStats hdr, prules, srules, overhead;
        std::size_t leaves = 0, pods = 0;
        constexpr int kSamples = 20;
        for (int i = 0; i < kSamples; ++i) {
          const auto members = make_members(topology, size, clustered, rng);
          const MulticastTree tree{topology, members};
          const auto enc = encoder.encode(tree, &space);
          hdr.add(static_cast<double>(
              encoder.header_bytes(tree, enc, members[0])));
          prules.add(static_cast<double>(enc.p_rule_count()));
          srules.add(static_cast<double>(enc.s_rule_count()));
          const auto report =
              evaluator.evaluate(tree, enc, members[0], 1500, rng());
          overhead.add(report.overhead_ratio());
          leaves = tree.num_leaves();
          pods = tree.num_pods();
          encoder.release(enc, space);
        }
        table.add_row({std::to_string(size),
                       clustered ? "clustered" : "dispersed",
                       std::to_string(r), std::to_string(leaves),
                       std::to_string(pods), TextTable::fmt(hdr.mean(), 0),
                       TextTable::fmt(prules.mean(), 1),
                       TextTable::fmt(srules.mean(), 1),
                       TextTable::fmt(overhead.mean(), 3)});
      }
    }
  }
  std::cout << "Encoding vs group size on " << topology.num_hosts()
            << " hosts (mean of 20 random groups per row)\n"
            << table.render()
            << "reading: clustered groups fit p-rules at any size; dispersed "
               "groups cross into s-rules once they span more leaves than "
               "the header budget holds, and R=12 pulls them back into the "
               "header at bounded redundancy.\n";
  return 0;
}
