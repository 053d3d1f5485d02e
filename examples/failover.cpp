// Failure handling (§3.3): what happens to a multicast group when a spine
// switch dies.
//
// Creates a cross-pod group, shows the multipath header, fails the spine of
// the group's plane, and shows the controller's recomputed header:
// multipath off, explicit upstream ports chosen by greedy set cover, traffic
// steered around the dead plane. The update counts printed are those of the
// change sets the failure and the restore return.
//
//   $ ./build/examples/failover
#include <iostream>

#include "elmo/controller.h"
#include "elmo/evaluator.h"

using namespace elmo;

namespace {

void describe_header(const topo::ClosTopology& topology,
                     const std::vector<std::uint8_t>& header,
                     const std::string& label) {
  const HeaderCodec codec{topology};
  const auto parsed = codec.parse(header);
  std::cout << label << ": " << header.size() << " bytes\n";
  std::cout << "  u-leaf : down=" << parsed.u_leaf->down.to_string()
            << " up=" << parsed.u_leaf->up.to_string()
            << (parsed.u_leaf->multipath ? " |M (multipath)" : " (explicit)")
            << "\n";
  if (parsed.u_spine) {
    std::cout << "  u-spine: down=" << parsed.u_spine->down.to_string()
              << " up=" << parsed.u_spine->up.to_string()
              << (parsed.u_spine->multipath ? " |M (multipath)"
                                            : " (explicit)")
              << "\n";
  }
  if (parsed.core_pods) {
    std::cout << "  core   : pods=" << parsed.core_pods->to_string() << "\n";
  }
}

}  // namespace

int main() {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  Controller controller{topology, EncoderConfig{}};

  // A group spanning three pods.
  std::vector<Member> members;
  std::uint32_t vm = 0;
  for (const topo::HostId h : {0, 1, 18, 35, 49}) {
    members.push_back(Member{h, vm++, MemberRole::kBoth});
  }
  const auto group = controller.create_group(/*tenant=*/1, members);
  const auto& state = controller.group(group);
  // Multipath is per group: every sender takes the plane the group's hash
  // picks, and the evaluator walks the same one.
  const auto hash = topo::group_hash(state.address);
  const auto plane = topology.ecmp_plane(hash);

  describe_header(topology, controller.header_for(group, 0),
                  "header before failure (sender host 0)");

  // Verify delivery via the analytic walk with the healthy fabric.
  const TrafficEvaluator evaluator{topology};
  auto report = evaluator.evaluate(*state.tree, state.encoding, 0, 256, hash);
  std::cout << "healthy fabric: " << report.delivery.members_reached << "/"
            << report.delivery.members_expected << " receivers reached\n\n";

  // --- fail the group's spine in pod 0 -------------------------------------
  const auto victim = topology.spine_at(/*pod=*/0, plane);
  std::cout << "failing spine " << victim << " (pod 0, plane " << plane
            << ", the group's plane)...\n";
  const auto impact = controller.fail_spine(victim);
  std::size_t switch_updates = 0;
  for (const auto& [id, change] : impact.changes) {
    switch_updates += change.srules.size();
  }
  std::cout << "controller: " << impact.groups_affected()
            << " group(s) affected, " << impact.hypervisor_updates()
            << " hypervisor update(s), " << switch_updates
            << " network switch update(s)\n\n";

  describe_header(topology, controller.header_for(group, 0),
                  "header after failure");

  // Walk the new header across the degraded fabric: delivery must survive.
  report = evaluator.evaluate(*state.tree, state.encoding, 0, 256, hash,
                              &controller.route_failures(group));
  std::cout << "degraded fabric: " << report.delivery.members_reached << "/"
            << report.delivery.members_expected << " receivers reached via "
            << report.elmo_link_transmissions << " transmissions\n";

  const auto restored = controller.restore_spine(victim);
  std::cout << "\nrestoring spine " << victim << ": "
            << restored.hypervisor_updates() << " hypervisor update(s)\n";
  describe_header(topology, controller.header_for(group, 0),
                  "header after restoration");
  return report.delivery.exactly_once() ? 0 : 1;
}
