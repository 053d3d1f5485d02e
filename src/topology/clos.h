// Three-tier multi-rooted Clos fabric (Facebook-Fabric style).
//
// Structure and port-numbering conventions (used by every other module):
//
//   * `pods` pods, each with `leaves_per_pod` leaf switches and
//     `spines_per_pod` spine switches; every leaf connects to every spine in
//     its pod.
//   * Each leaf connects `hosts_per_leaf` hosts on its downstream ports.
//   * Spines are organized in planes: spine index s (within its pod) belongs
//     to plane s, which contains `cores_per_plane` core switches. Spine s of
//     every pod connects to all cores of plane s; a core therefore has
//     exactly one downstream port per pod.
//
//   Leaf ports : [0, hosts_per_leaf)                    -> hosts
//                [hosts_per_leaf, +spines_per_pod)      -> pod spines
//   Spine ports: [0, leaves_per_pod)                    -> pod leaves
//                [leaves_per_pod, +cores_per_plane)     -> plane cores
//   Core ports : [0, pods)                              -> pod spines
//
// Elmo's logical view collapses each pod's spines into one logical spine and
// all cores into one logical core (paper §3.1 D2); helpers below expose both
// the physical and the logical coordinates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/headers.h"
#include "util/rng.h"

namespace elmo::topo {

using HostId = std::uint32_t;
using LeafId = std::uint32_t;   // global leaf index
using SpineId = std::uint32_t;  // global spine index
using CoreId = std::uint32_t;
using PodId = std::uint32_t;

// Layer of a switch (or host) in the fabric.
enum class Layer : std::uint8_t { kHost, kLeaf, kSpine, kCore };

std::string to_string(Layer layer);

struct ClosParams {
  std::size_t pods = 12;
  std::size_t leaves_per_pod = 48;
  std::size_t spines_per_pod = 4;
  std::size_t cores_per_plane = 12;
  std::size_t hosts_per_leaf = 48;

  // The paper's running example (Fig. 3): 4 pods x 2 spines x 2 leaves,
  // 2 hosts per leaf, 4 cores in one plane... the figure wires 4 cores; we
  // model them as 2 planes x 2 cores so each spine has 2 uplinks.
  static ClosParams running_example() {
    return ClosParams{.pods = 4,
                      .leaves_per_pod = 2,
                      .spines_per_pod = 2,
                      .cores_per_plane = 2,
                      .hosts_per_leaf = 2};
  }

  // Facebook-Fabric scale used in the paper's evaluation: 12 pods, 48 leaves
  // per pod, 48 hosts per leaf => 27,648 hosts.
  static ClosParams facebook_fabric() { return ClosParams{}; }

  // Two-tier leaf-spine (CONGA-style): a single "pod" whose spines are the
  // top tier; no core layer is ever used (groups never span pods), so the
  // encoder emits no core section and multipath happens at the leaf only.
  static ClosParams two_tier_leaf_spine() {
    return ClosParams{.pods = 1,
                      .leaves_per_pod = 32,
                      .spines_per_pod = 8,
                      .cores_per_plane = 1,
                      .hosts_per_leaf = 32};
  }

  // Small fabric for fast tests: 4 pods x 4 leaves x 2 spines, 4 hosts/leaf.
  static ClosParams small_test() {
    return ClosParams{.pods = 4,
                      .leaves_per_pod = 4,
                      .spines_per_pod = 2,
                      .cores_per_plane = 2,
                      .hosts_per_leaf = 4};
  }
};

class ClosTopology {
 public:
  explicit ClosTopology(const ClosParams& params);

  const ClosParams& params() const noexcept { return params_; }

  // ---- entity counts -------------------------------------------------
  std::size_t num_pods() const noexcept { return params_.pods; }
  std::size_t num_leaves() const noexcept {
    return params_.pods * params_.leaves_per_pod;
  }
  std::size_t num_spines() const noexcept {
    return params_.pods * params_.spines_per_pod;
  }
  std::size_t num_cores() const noexcept {
    return params_.spines_per_pod * params_.cores_per_plane;
  }
  std::size_t num_hosts() const noexcept {
    return num_leaves() * params_.hosts_per_leaf;
  }
  std::size_t num_switches() const noexcept {
    return num_leaves() + num_spines() + num_cores();
  }

  // ---- port counts per switch role ------------------------------------
  std::size_t leaf_down_ports() const noexcept { return params_.hosts_per_leaf; }
  std::size_t leaf_up_ports() const noexcept { return params_.spines_per_pod; }
  std::size_t spine_down_ports() const noexcept {
    return params_.leaves_per_pod;
  }
  std::size_t spine_up_ports() const noexcept {
    return params_.cores_per_plane;
  }
  std::size_t core_ports() const noexcept { return params_.pods; }

  // ---- coordinate mappings --------------------------------------------
  LeafId leaf_of_host(HostId host) const;
  std::size_t host_port_on_leaf(HostId host) const;  // leaf downstream port
  HostId host_at(LeafId leaf, std::size_t port) const;

  PodId pod_of_leaf(LeafId leaf) const;
  std::size_t leaf_index_in_pod(LeafId leaf) const;  // == spine downstream port
  LeafId leaf_at(PodId pod, std::size_t index) const;

  PodId pod_of_host(HostId host) const { return pod_of_leaf(leaf_of_host(host)); }

  PodId pod_of_spine(SpineId spine) const;
  std::size_t plane_of_spine(SpineId spine) const;  // index within pod
  SpineId spine_at(PodId pod, std::size_t plane) const;

  std::size_t plane_of_core(CoreId core) const;
  std::size_t core_index_in_plane(CoreId core) const;
  CoreId core_at(std::size_t plane, std::size_t index) const;

  // Spine upstream port `p` of spine in plane `plane` reaches this core.
  CoreId core_behind_spine_port(SpineId spine, std::size_t up_port) const;
  // Core downstream port `pod` reaches this spine.
  SpineId spine_behind_core_port(CoreId core, PodId pod) const;

  // ---- ECMP choices (paper D2b) ----------------------------------------
  // Where a multipath hop sends a flow of hash `hash`: a leaf up to the
  // spine of plane `ecmp_plane(hash)`, a spine up to its core
  // `ecmp_core(hash)` (index within the plane). The switches forward by
  // these, the analytic evaluator models them, and the controller reads
  // them to tell which groups a failed switch carries.
  std::size_t ecmp_plane(std::uint64_t hash) const noexcept {
    return hash % leaf_up_ports();
  }
  std::size_t ecmp_core(std::uint64_t hash) const noexcept {
    return (hash >> 8) % spine_up_ports();
  }

  // ---- identifier widths (for header encoding) -------------------------
  unsigned leaf_id_bits() const noexcept;
  unsigned pod_id_bits() const noexcept;

 private:
  void check(bool cond, const char* what) const {
    if (!cond) throw std::out_of_range{std::string{"ClosTopology: "} + what};
  }

  ClosParams params_;
};

// Multipath hash of a multicast group's traffic: one value per group, not
// per sender, so every sender of a group takes the group's plane and the
// controller can tell from the group alone whether a failed switch lies on
// its path (Controller::route_failures). The address enters relative to
// 239.0.0.0, where net::Ipv4Address::multicast_group puts the first 2^24
// group indices, so group index i hashes as the integer i; the other
// blocks hash apart from it.
inline std::uint64_t group_hash(net::Ipv4Address group) noexcept {
  std::uint64_t seed =
      0x9e3779b97f4a7c15ULL ^
      (static_cast<std::uint64_t>(group.value ^ 0xef000000u) << 1);
  return util::splitmix64(seed);
}

// Set of failed switches, consulted when computing upstream rules. Leaf
// failures disconnect their hosts (paper §5.1.3b) and are not modelled as
// recoverable.
class FailureSet {
 public:
  void fail_spine(SpineId spine) { set(failed_spines_, spine); }
  void fail_core(CoreId core) { set(failed_cores_, core); }
  void restore_spine(SpineId spine) { unset(failed_spines_, spine); }
  void restore_core(CoreId core) { unset(failed_cores_, core); }

  bool spine_failed(SpineId spine) const { return has(failed_spines_, spine); }
  bool core_failed(CoreId core) const { return has(failed_cores_, core); }
  bool empty() const noexcept {
    return failed_spines_.empty() && failed_cores_.empty();
  }

  const std::vector<SpineId>& failed_spines() const noexcept {
    return failed_spines_;
  }
  const std::vector<CoreId>& failed_cores() const noexcept {
    return failed_cores_;
  }

 private:
  static void set(std::vector<std::uint32_t>& v, std::uint32_t id);
  static void unset(std::vector<std::uint32_t>& v, std::uint32_t id);
  static bool has(const std::vector<std::uint32_t>& v, std::uint32_t id);

  std::vector<SpineId> failed_spines_;
  std::vector<CoreId> failed_cores_;
};

}  // namespace elmo::topo
