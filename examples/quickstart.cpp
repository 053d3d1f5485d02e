// Quickstart: the paper's running example (Fig. 3) end to end.
//
// Builds the 4-pod Clos from §3.1, creates the 6-member multicast group
// {Ha, Hb, Hk, Hm, Hn, Hp}, inspects the p-rules and the serialized Elmo
// header, and sends a packet from Ha through the packet-level data plane.
//
//   $ ./build/examples/quickstart
#include <array>
#include <iostream>

#include "elmo/controller.h"
#include "elmo/stream.h"
#include "sim/fabric.h"

using namespace elmo;

namespace {

const char* host_name(topo::HostId h) {
  static const char* names[] = {"Ha", "Hb", "Hc", "Hd", "He", "Hf",
                                "Hg", "Hh", "Hi", "Hj", "Hk", "Hl",
                                "Hm", "Hn", "Ho", "Hp"};
  return names[h];
}

}  // namespace

int main() {
  // --- topology and control plane ------------------------------------------
  const topo::ClosTopology topology{topo::ClosParams::running_example()};
  std::cout << "fabric: " << topology.num_pods() << " pods x "
            << topology.params().leaves_per_pod << " leaves x "
            << topology.params().hosts_per_leaf << " hosts = "
            << topology.num_hosts() << " hosts\n";

  EncoderConfig config;
  config.redundancy_limit = 2;     // the figure's R = 2 column
  config.hmax_spine = 2;
  config.hmax_leaf_override = 2;
  config.kmax = 2;
  config.kmax_spine = 2;
  Controller controller{topology, config};
  sim::Fabric fabric{topology};

  // --- create the Fig. 3 group ---------------------------------------------
  // Ha(0), Hb(1) under L0; Hk(10) under L5; Hm(12), Hn(13) under L6;
  // Hp(15) under L7.
  std::vector<Member> members;
  std::uint32_t vm = 0;
  for (const topo::HostId h : {0, 1, 10, 12, 13, 15}) {
    members.push_back(Member{h, vm++, MemberRole::kBoth});
  }
  const auto group = controller.create_group(/*tenant=*/7, members);
  const auto& state = controller.group(group);
  std::cout << "group " << state.address.to_string() << " with "
            << state.members.size() << " members\n\n";

  // --- inspect the encoding -------------------------------------------------
  std::cout << "downstream spine p-rules (bitmap over a pod's leaf ports):\n";
  for (const auto& rule : state.encoding.spine.p_rules) {
    std::cout << "  " << rule.bitmap.to_string() << " : pods [";
    for (const auto id : rule.switch_ids) std::cout << " P" << id;
    std::cout << " ]\n";
  }
  std::cout << "downstream leaf p-rules (bitmap over a leaf's host ports):\n";
  for (const auto& rule : state.encoding.leaf.p_rules) {
    std::cout << "  " << rule.bitmap.to_string() << " : leaves [";
    for (const auto id : rule.switch_ids) std::cout << " L" << id;
    std::cout << " ]\n";
  }
  std::cout << "s-rules: " << state.encoding.s_rule_count()
            << ", default p-rule: "
            << (state.encoding.uses_default() ? "yes" : "no") << "\n\n";

  // --- the header Ha's hypervisor pushes ------------------------------------
  const auto header = controller.header_for(group, /*Ha=*/0);
  std::cout << "Elmo header for sender Ha: " << header.size() << " bytes:";
  for (const auto byte : header) {
    std::cout << ' ' << std::hex << static_cast<int>(byte >> 4)
              << static_cast<int>(byte & 0xf) << std::dec;
  }
  std::cout << "\n\n";

  // --- send a packet through the simulated data plane -----------------------
  stream::ControlPlane{controller, fabric}.sync(std::array{group});
  const auto result = fabric.send(/*Ha=*/0, state.address, /*payload=*/100);
  std::cout << "packet from Ha reached " << result.host_copies.size()
            << " hosts over " << result.total_link_transmissions
            << " link transmissions (" << result.total_wire_bytes
            << " wire bytes):\n";
  for (const auto& [host, copies] : result.host_copies) {
    const bool member = state.tree->is_member(host);
    std::cout << "  " << host_name(host) << " x" << copies
              << (member ? ""
                         : "  (redundant copy from R=2 bitmap sharing; the "
                           "hypervisor discards it)")
              << "\n";
  }
  std::cout << "\nFig. 3b check: L0 delivered to Hb locally, the core fanned "
               "out to pods P2 and P3, and every p-rule layer was popped "
               "before reaching the hosts.\n";
  return 0;
}
