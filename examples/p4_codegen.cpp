// Dumps the generated P4_16 programs the controller would push to switches
// at boot time (paper §2; the authors' artifact is Elmo-MCast/p4-programs).
//
//   $ ./build/examples/p4_codegen            # network-switch program
//   $ ./build/examples/p4_codegen hypervisor # PISCES-style program
#include <cstring>
#include <iostream>

#include "elmo/tree_encoder.h"
#include "p4gen/p4gen.h"

int main(int argc, char** argv) {
  using namespace elmo;
  const topo::ClosTopology topology{topo::ClosParams::facebook_fabric()};
  EncoderConfig cfg;
  const TreeEncoder encoder{topology, cfg};
  const auto options = p4gen::P4Options::from_config(cfg, encoder.hmax_leaf());

  const bool hypervisor =
      argc > 1 && std::strcmp(argv[1], "hypervisor") == 0;
  std::cout << (hypervisor
                    ? p4gen::hypervisor_switch_program(topology, options)
                    : p4gen::network_switch_program(topology, options));
  return 0;
}
