#include "elmo/tree.h"

#include <algorithm>
#include <utility>

namespace elmo {
namespace {

// Position of `id` in a vector of entries sorted by `key`.
template <typename Entries, typename Id, typename Key>
auto lower_bound_by(Entries& entries, Id id, Key key) {
  return std::lower_bound(
      entries.begin(), entries.end(), id,
      [key](const auto& e, Id value) { return e.*key < value; });
}

}  // namespace

MulticastTree::MulticastTree(const topo::ClosTopology& topology,
                             std::span<const topo::HostId> member_hosts)
    : topo_{&topology}, member_pods_{topology.num_pods()} {
  // (leaf, port) of every member host, sorted: one leaf entry per run, and
  // a host listed twice is one member.
  std::vector<std::pair<topo::LeafId, std::size_t>> at;
  at.reserve(member_hosts.size());
  for (const auto host : member_hosts) {
    at.emplace_back(topology.leaf_of_host(host),
                    topology.host_port_on_leaf(host));
  }
  std::sort(at.begin(), at.end());
  at.erase(std::unique(at.begin(), at.end()), at.end());
  num_members_ = at.size();

  std::vector<std::pair<topo::PodId, std::size_t>> pod_at;
  for (const auto& [leaf, port] : at) {
    if (leaves_.empty() || leaves_.back().leaf != leaf) {
      leaves_.push_back(
          LeafTreeEntry{leaf, net::PortBitmap{topology.leaf_down_ports()}});
      pod_at.emplace_back(topology.pod_of_leaf(leaf),
                          topology.leaf_index_in_pod(leaf));
    }
    leaves_.back().host_ports.set(port);
  }
  std::sort(pod_at.begin(), pod_at.end());
  for (const auto& [pod, index] : pod_at) {
    if (pods_.empty() || pods_.back().pod != pod) {
      pods_.push_back(
          PodTreeEntry{pod, net::PortBitmap{topology.spine_down_ports()}});
      member_pods_.set(pod);
    }
    pods_.back().leaf_ports.set(index);
  }
}

const LeafTreeEntry* MulticastTree::find_leaf(topo::LeafId leaf) const {
  const auto it = lower_bound_by(leaves_, leaf, &LeafTreeEntry::leaf);
  return (it != leaves_.end() && it->leaf == leaf) ? &*it : nullptr;
}

const PodTreeEntry* MulticastTree::find_pod(topo::PodId pod) const {
  const auto it = lower_bound_by(pods_, pod, &PodTreeEntry::pod);
  return (it != pods_.end() && it->pod == pod) ? &*it : nullptr;
}

bool MulticastTree::is_member(topo::HostId host) const {
  const auto* entry = find_leaf(topo_->leaf_of_host(host));
  return entry != nullptr && entry->host_ports.test(topo_->host_port_on_leaf(host));
}

void MulticastTree::add_host(topo::HostId host) {
  const auto& t = *topo_;
  const auto leaf = t.leaf_of_host(host);
  const auto port = t.host_port_on_leaf(host);
  auto it = lower_bound_by(leaves_, leaf, &LeafTreeEntry::leaf);
  const bool leaf_in_tree = it != leaves_.end() && it->leaf == leaf;
  if (leaf_in_tree && it->host_ports.test(port)) return;
  ++num_members_;
  if (leaf_in_tree) {
    it->host_ports.set(port);
    return;
  }
  it = leaves_.insert(
      it, LeafTreeEntry{leaf, net::PortBitmap{t.leaf_down_ports()}});
  it->host_ports.set(port);

  const auto pod = t.pod_of_leaf(leaf);
  auto p = lower_bound_by(pods_, pod, &PodTreeEntry::pod);
  if (p == pods_.end() || p->pod != pod) {
    p = pods_.insert(
        p, PodTreeEntry{pod, net::PortBitmap{t.spine_down_ports()}});
    member_pods_.set(pod);
  }
  p->leaf_ports.set(t.leaf_index_in_pod(leaf));
}

void MulticastTree::remove_host(topo::HostId host) {
  const auto& t = *topo_;
  const auto leaf = t.leaf_of_host(host);
  const auto port = t.host_port_on_leaf(host);
  const auto it = lower_bound_by(leaves_, leaf, &LeafTreeEntry::leaf);
  if (it == leaves_.end() || it->leaf != leaf || !it->host_ports.test(port)) {
    return;
  }
  --num_members_;
  it->host_ports.set(port, false);
  if (it->host_ports.any()) return;
  leaves_.erase(it);

  const auto pod = t.pod_of_leaf(leaf);
  const auto p = lower_bound_by(pods_, pod, &PodTreeEntry::pod);
  p->leaf_ports.set(t.leaf_index_in_pod(leaf), false);
  if (p->leaf_ports.none()) {
    pods_.erase(p);
    member_pods_.set(pod, false);
  }
}

SenderRoute MulticastTree::sender_route(
    topo::HostId sender, const topo::FailureSet& failures) const {
  return RouteContext{*this, failures}.route(sender);
}

SenderRoute RouteContext::route(topo::HostId sender) {
  const auto at = locate(sender);
  auto route = at.pod->route;
  auto& enc = route.encoding;
  if (at.local != nullptr) {
    enc.u_leaf.down = at.local->host_ports;
    enc.u_leaf.down.set(at.port, false);
  }
  if (enc.u_spine) enc.u_spine->down.set(at.leaf_index, false);
  return route;
}

std::vector<std::uint8_t> RouteContext::header(
    topo::HostId sender, const HeaderCodec& codec,
    std::span<const std::uint8_t> shared) {
  const auto at = locate(sender);
  auto& pod = *at.pod;
  const auto& enc = pod.route.encoding;
  if (pod.upstream.empty()) {
    net::BitWriter out;
    codec.write_u_leaf(out, enc.u_leaf);
    codec.write_u_spine_core(out, enc);
    pod.upstream = out.take();
  }
  std::vector<std::uint8_t> bytes;
  bytes.reserve(pod.upstream.size() + shared.size());
  bytes.insert(bytes.end(), pod.upstream.begin(), pod.upstream.end());
  bytes.insert(bytes.end(), shared.begin(), shared.end());
  if (at.local != nullptr) {
    auto down = at.local->host_ports;
    down.set(at.port, false);
    codec.add_u_leaf_down_ports(bytes, down);
  }
  if (enc.u_spine && enc.u_spine->down.test(at.leaf_index)) {
    codec.clear_u_spine_down_port(bytes, at.leaf_index);
  }
  return bytes;
}

RouteContext::Sender RouteContext::locate(topo::HostId sender) {
  const auto& tree = *tree_;
  const auto& t = tree.topology();
  const auto leaf = t.leaf_of_host(sender);
  const auto pod = t.pod_of_leaf(leaf);
  Sender at;
  at.local = tree.find_leaf(leaf);
  at.port = t.host_port_on_leaf(sender);
  at.leaf_index = t.leaf_index_in_pod(leaf);

  auto* slot = &first_;
  if (first_.known && first_.pod != pod) {
    if (pods_.empty()) pods_.resize(t.num_pods());
    slot = &pods_[pod];
  }
  auto& info = *slot;
  if (!info.known) {
    info.known = true;
    info.pod = pod;
    info.entry = tree.find_pod(pod);
    info.member_leaves =
        info.entry != nullptr ? info.entry->leaf_ports.popcount() : 0;
  }
  // Does the sender's pod hold member leaves besides the sender's own?
  const bool same_pod_fanout =
      info.member_leaves > (at.local != nullptr ? 1u : 0u);
  auto& index = info.route[same_pod_fanout];
  if (index == kNoRoute) {
    index = static_cast<std::uint32_t>(routes_.size());
    routes_.push_back(compute(pod, info, same_pod_fanout));
  }
  at.pod = &routes_[index];
  return at;
}

RouteContext::PodRoute RouteContext::compute(topo::PodId sender_pod,
                                             const PodInfo& info,
                                             bool same_pod_fanout) const {
  const auto& tree = *tree_;
  const auto& t = tree.topology();
  const auto& failures = *failures_;
  PodRoute out;
  auto& enc = out.route.encoding;

  // --- u-leaf: route() and header() add the sender leaf's member ports -
  enc.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  enc.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};

  // Must the core fan out to member pods other than the sender's?
  const bool other_pods = tree.num_pods() > (info.entry != nullptr ? 1u : 0u);
  if (!other_pods && !same_pod_fanout) {
    enc.u_leaf.multipath = false;
    return out;  // group confined to the sender's rack
  }

  // --- u-spine: the pod's member leaves (the sender's is cleared later) ---
  UpstreamRule u_spine;
  u_spine.down = info.entry != nullptr ? info.entry->leaf_ports
                                       : net::PortBitmap{t.spine_down_ports()};
  u_spine.up = net::PortBitmap{t.spine_up_ports()};

  if (failures.empty()) {
    // Fast path: the fabric's multipath scheme handles spine/core choice.
    enc.u_leaf.multipath = true;
    u_spine.multipath = other_pods;
    enc.u_spine = std::move(u_spine);
    if (other_pods) {
      enc.core_pods = tree.member_pods();
      enc.core_pods->set(sender_pod, false);
    }
    return out;
  }

  // --- §3.3 failure path: multipath off, explicit upstream ports ----------
  // Greedy set cover: choose spines of the sender's pod (and upstream core
  // ports) so that every other member pod is reachable. A spine s (plane k)
  // covers pod p through core c of plane k iff s, c and spine_at(p, k) are
  // all alive. A spine with an alive plane is also needed to reach same-pod
  // leaves.
  enc.u_leaf.multipath = false;
  u_spine.multipath = false;

  std::vector<topo::PodId> other;
  for (const auto& pod : tree.pods()) {
    if (pod.pod != sender_pod) other.push_back(pod.pod);
  }
  std::vector<bool> pod_covered(other.size(), false);
  bool chose_any_spine = false;

  auto covers = [&](std::size_t plane, topo::PodId pod) {
    if (failures.spine_failed(t.spine_at(pod, plane))) return false;
    for (std::size_t ci = 0; ci < t.spine_up_ports(); ++ci) {
      if (!failures.core_failed(t.core_at(plane, ci))) return true;
    }
    return false;
  };

  while (true) {
    // Pick the alive spine covering the most uncovered pods.
    std::size_t best_plane = t.leaf_up_ports();
    std::size_t best_gain = 0;
    for (std::size_t plane = 0; plane < t.leaf_up_ports(); ++plane) {
      if (failures.spine_failed(t.spine_at(sender_pod, plane))) continue;
      std::size_t gain = 0;
      for (std::size_t i = 0; i < other.size(); ++i) {
        if (!pod_covered[i] && covers(plane, other[i])) ++gain;
      }
      if (!chose_any_spine && same_pod_fanout && gain == 0 &&
          best_gain == 0 && best_plane == t.leaf_up_ports()) {
        best_plane = plane;  // any alive spine reaches same-pod leaves
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_plane = plane;
      }
    }
    if (best_plane == t.leaf_up_ports()) break;  // nothing else to gain
    if (best_gain == 0 && chose_any_spine) break;

    enc.u_leaf.up.set(best_plane);
    chose_any_spine = true;
    if (best_gain > 0) {
      // Pick one alive core in this plane for the u-spine upstream port.
      for (std::size_t ci = 0; ci < t.spine_up_ports(); ++ci) {
        if (!failures.core_failed(t.core_at(best_plane, ci))) {
          u_spine.up.set(ci);
          break;
        }
      }
      for (std::size_t i = 0; i < other.size(); ++i) {
        if (!pod_covered[i] && covers(best_plane, other[i])) {
          pod_covered[i] = true;
        }
      }
    }
    if (std::all_of(pod_covered.begin(), pod_covered.end(),
                    [](bool covered) { return covered; }) &&
        (chose_any_spine || !same_pod_fanout)) {
      break;
    }
  }

  enc.u_spine = std::move(u_spine);
  if (other_pods) enc.core_pods = net::PortBitmap{t.core_ports()};
  for (std::size_t i = 0; i < other.size(); ++i) {
    if (pod_covered[i]) {
      enc.core_pods->set(other[i]);
    } else {
      out.route.unreachable_pods.push_back(other[i]);
    }
  }
  return out;
}

}  // namespace elmo
