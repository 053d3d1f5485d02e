// Multicast traceroute (paper §7, Monitoring): visualize the replication
// tree the data plane actually executes for a group, hop by hop, with the
// per-link header sizes showing the p-rules being popped.
//
//   $ ./build/examples/mtrace_tool
#include <array>
#include <iostream>

#include "elmo/stream.h"
#include "sim/mtrace.h"

using namespace elmo;

int main() {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  Controller controller{topology, EncoderConfig{}};
  sim::Fabric fabric{topology};

  // A three-pod group.
  std::vector<Member> members;
  std::uint32_t vm = 0;
  for (const topo::HostId h : {0, 2, 6, 17, 18, 35}) {
    members.push_back(Member{h, vm++, MemberRole::kBoth});
  }
  const auto group = controller.create_group(/*tenant=*/1, members);
  stream::ControlPlane control{controller, fabric};
  control.sync(std::array{group});

  std::cout << "group " << controller.group(group).address.to_string()
            << ", members on hosts 0, 2, 6, 17, 18, 35\n\n";
  const auto report = sim::mtrace(fabric, controller, group, /*sender=*/0,
                                  /*payload=*/128);
  std::cout << report.render();
  std::cout << "\nnote how the on-wire size shrinks at each tier: the "
               "upstream sections, the core bitmap and the spine rules are "
               "popped as the packet descends; hosts receive clean VXLAN "
               "frames.\n";

  // Now fail the pod-0 spine of the group's multipath plane and trace again.
  // The control plane streams the failure's change set (the re-routed
  // sender headers) to the fabric; the fabric models the dead switch.
  const auto plane =
      topology.ecmp_plane(topo::group_hash(controller.group(group).address));
  const auto victim = topology.spine_at(0, plane);
  control.fail_spine(victim);
  control.flush();
  fabric.spine(victim).set_down(true);
  std::cout << "\nafter failing spine S" << victim
            << " (multipath off, explicit uplinks):\n";
  const auto degraded = sim::mtrace(fabric, controller, group, 0, 128);
  std::cout << degraded.render();
  return report.members_reached == 5 && degraded.members_reached == 5 ? 0 : 1;
}
