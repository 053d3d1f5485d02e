#include "elmo/evaluator.h"

#include <vector>

namespace elmo {

TrafficReport TrafficEvaluator::evaluate(const MulticastTree& tree,
                                         const GroupEncoding& encoding,
                                         topo::HostId sender,
                                         std::size_t payload_bytes,
                                         std::uint64_t flow_hash,
                                         const topo::FailureSet* failures,
                                         const std::vector<bool>* legacy_leaf) const {
  const auto& t = *topo_;
  const topo::FailureSet no_failures;
  const auto& fails = failures != nullptr ? *failures : no_failures;

  const auto route = tree.sender_route(sender, fails);
  const auto& senc = route.encoding;

  const auto header = codec_.serialize(senc, encoding);
  const auto extents = codec_.scan_sections(header);
  const std::size_t total = extents.back().end;

  // Bytes of Elmo header left on the wire once every section before the
  // first one the next hop needs has been popped. Sections are serialized in
  // ascending tag order with END last, so scan for the first tag >= needed.
  auto remaining_from = [&](SectionTag first_needed) -> std::size_t {
    for (const auto& e : extents) {
      if (e.tag == SectionTag::kEnd ||
          static_cast<int>(e.tag) >= static_cast<int>(first_needed)) {
        return total - e.begin;
      }
    }
    return 0;
  };

  TrafficReport report;
  report.header_bytes_at_source = total;

  auto wire = [&](std::size_t elmo_bytes) {
    return static_cast<std::uint64_t>(net::kOuterHeaderBytes + elmo_bytes +
                                      payload_bytes);
  };
  auto count = [&](std::size_t elmo_bytes) {
    report.elmo_wire_bytes += wire(elmo_bytes);
    ++report.elmo_link_transmissions;
  };

  report.delivery.members_expected =
      tree.num_members() - (tree.is_member(sender) ? 1 : 0);
  std::unordered_set<topo::HostId> reached;
  reached.reserve(tree.num_members() * 2);

  // Which rule class produced a delivery, for the excess-cause split.
  enum class CopyVia { kExact, kSharedPRule, kSRule, kDefault };
  auto deliver = [&](topo::HostId host, CopyVia via) {
    count(0);  // leaf->host: egress invalidated all p-rules
    bool excess = true;
    if (host != sender && tree.is_member(host)) {
      if (reached.insert(host).second) {
        ++report.delivery.members_reached;
        excess = false;
      } else {
        ++report.delivery.duplicate_deliveries;
      }
    } else {
      ++report.delivery.spurious_deliveries;
    }
    if (!excess) return;
    switch (via) {
      case CopyVia::kExact:
        ++report.delivery.excess_via_exact;
        break;
      case CopyVia::kSharedPRule:
        ++report.delivery.excess_via_shared_prule;
        break;
      case CopyVia::kSRule:
        ++report.delivery.excess_via_srule;
        break;
      case CopyVia::kDefault:
        ++report.delivery.excess_via_default;
        break;
    }
  };

  // Per-switch lookup state for the downstream layers.
  std::unordered_map<std::uint32_t, const net::PortBitmap*> spine_prule;
  std::unordered_map<std::uint32_t, const net::PortBitmap*> leaf_prule;
  for (const auto& rule : encoding.spine.p_rules) {
    for (const auto id : rule.switch_ids) spine_prule[id] = &rule.bitmap;
  }
  for (const auto& rule : encoding.leaf.p_rules) {
    for (const auto id : rule.switch_ids) leaf_prule[id] = &rule.bitmap;
  }
  std::unordered_map<std::uint32_t, const net::PortBitmap*> spine_srule;
  std::unordered_map<std::uint32_t, const net::PortBitmap*> leaf_srule;
  for (const auto& [id, bitmap] : encoding.spine.s_rules) {
    spine_srule[id] = &bitmap;
  }
  for (const auto& [id, bitmap] : encoding.leaf.s_rules) {
    leaf_srule[id] = &bitmap;
  }
  // Exact per-leaf tree bitmaps, to tell a shared p-rule's superset bits
  // from its exact bits when attributing excess copies.
  std::unordered_map<std::uint32_t, const net::PortBitmap*> exact_leaf;
  for (const auto& leaf : tree.leaves()) {
    exact_leaf[leaf.leaf] = &leaf.host_ports;
  }

  const std::size_t leaf_stage = remaining_from(SectionTag::kLeafRules);

  // Downstream leaf processing: p-rule match, else s-rule, else default.
  // A legacy leaf cannot parse the header at all, so only its group table
  // (s-rule) applies — falling through to the default p-rule here would
  // deliver copies the real switch drops.
  auto process_leaf_down = [&](topo::LeafId leaf) {
    const bool legacy = legacy_leaf != nullptr && leaf < legacy_leaf->size() &&
                        (*legacy_leaf)[leaf];
    const net::PortBitmap* bitmap = nullptr;
    CopyVia via = CopyVia::kDefault;
    bool from_prule = false;
    if (const auto it = leaf_prule.find(leaf);
        !legacy && it != leaf_prule.end()) {
      bitmap = it->second;
      from_prule = true;
    } else if (const auto sit = leaf_srule.find(leaf); sit != leaf_srule.end()) {
      bitmap = sit->second;
      via = CopyVia::kSRule;
    } else if (!legacy && encoding.leaf.default_rule) {
      bitmap = &*encoding.leaf.default_rule;
      via = CopyVia::kDefault;
    }
    if (bitmap == nullptr) return;
    const net::PortBitmap* exact = nullptr;
    if (from_prule) {
      const auto eit = exact_leaf.find(leaf);
      exact = eit != exact_leaf.end() ? eit->second : nullptr;
    }
    bitmap->for_each_set([&](std::size_t port) {
      if (from_prule) {
        via = (exact != nullptr && exact->test(port)) ? CopyVia::kExact
                                                      : CopyVia::kSharedPRule;
      }
      deliver(t.host_at(leaf, port), via);
    });
  };

  // Downstream spine processing for a pod the core fanned out to.
  auto process_pod_down = [&](topo::PodId pod) {
    const net::PortBitmap* bitmap = nullptr;
    if (const auto it = spine_prule.find(pod); it != spine_prule.end()) {
      bitmap = it->second;
    } else if (const auto sit = spine_srule.find(pod); sit != spine_srule.end()) {
      bitmap = sit->second;
    } else if (encoding.spine.default_rule) {
      bitmap = &*encoding.spine.default_rule;
    }
    if (bitmap == nullptr) return;
    bitmap->for_each_set([&](std::size_t leaf_port) {
      count(leaf_stage);  // spine->leaf
      process_leaf_down(t.leaf_at(pod, leaf_port));
    });
  };

  const auto sender_leaf = t.leaf_of_host(sender);
  const auto sender_pod = t.pod_of_leaf(sender_leaf);

  count(total);  // host->leaf: hypervisor pushed the full header

  // --- upstream leaf -------------------------------------------------------
  senc.u_leaf.down.for_each_set([&](std::size_t port) {
    deliver(t.host_at(sender_leaf, port), CopyVia::kExact);
  });

  std::vector<std::size_t> up_planes;
  if (senc.u_leaf.multipath) {
    up_planes.push_back(t.ecmp_plane(flow_hash));
  } else {
    senc.u_leaf.up.for_each_set(
        [&](std::size_t plane) { up_planes.push_back(plane); });
  }

  const std::size_t after_uleaf = remaining_from(SectionTag::kUSpine);
  const std::size_t after_uspine = remaining_from(SectionTag::kCore);
  const std::size_t after_core = remaining_from(SectionTag::kSpineRules);

  for (const auto plane : up_planes) {
    count(after_uleaf);  // leaf->spine
    if (fails.spine_failed(t.spine_at(sender_pod, plane))) continue;  // lost
    if (!senc.u_spine) continue;

    // Upstream spine: serve other member leaves of the sender's pod.
    senc.u_spine->down.for_each_set([&](std::size_t leaf_port) {
      count(leaf_stage);
      process_leaf_down(t.leaf_at(sender_pod, leaf_port));
    });

    if (!senc.core_pods || senc.core_pods->none()) continue;

    std::vector<std::size_t> core_ports;
    if (senc.u_spine->multipath) {
      core_ports.push_back(t.ecmp_core(flow_hash));
    } else {
      senc.u_spine->up.for_each_set(
          [&](std::size_t port) { core_ports.push_back(port); });
    }

    for (const auto core_port : core_ports) {
      count(after_uspine);  // spine->core
      const auto core = t.core_at(plane, core_port);
      if (fails.core_failed(core)) continue;  // lost
      senc.core_pods->for_each_set([&](std::size_t pod) {
        count(after_core);  // core->spine
        if (fails.spine_failed(
                t.spine_at(static_cast<topo::PodId>(pod), plane))) {
          return;  // delivered into a dead switch
        }
        process_pod_down(static_cast<topo::PodId>(pod));
      });
    }
  }

  report.ideal_link_transmissions = ideal_transmissions(tree, sender);
  report.ideal_wire_bytes = report.ideal_link_transmissions * wire(0);
  return report;
}

std::uint64_t TrafficEvaluator::ideal_transmissions(const MulticastTree& tree,
                                                    topo::HostId sender) {
  const auto& t = tree.topology();
  const auto sender_leaf = t.leaf_of_host(sender);
  const auto sender_pod = t.pod_of_leaf(sender_leaf);
  const bool sender_is_member = tree.is_member(sender);

  std::uint64_t hops = 1;  // host->leaf

  // Deliveries (leaf->host edges).
  for (const auto& leaf : tree.leaves()) {
    std::uint64_t deliveries = leaf.host_ports.popcount();
    if (leaf.leaf == sender_leaf && sender_is_member) --deliveries;
    hops += deliveries;
  }

  const bool beyond_leaf =
      tree.num_leaves() > 1 ||
      (tree.num_leaves() == 1 && tree.leaves()[0].leaf != sender_leaf);
  if (!beyond_leaf) return hops;

  hops += 1;  // sender leaf->spine

  // spine->leaf edges.
  for (const auto& pod : tree.pods()) {
    std::uint64_t fanout = pod.leaf_ports.popcount();
    if (pod.pod == sender_pod &&
        pod.leaf_ports.test(t.leaf_index_in_pod(sender_leaf))) {
      --fanout;  // the sender's own leaf already has the packet
    }
    hops += fanout;
  }

  // Core edges for multi-pod groups.
  std::uint64_t other_pods = 0;
  for (const auto& pod : tree.pods()) {
    if (pod.pod != sender_pod) ++other_pods;
  }
  if (other_pods > 0) {
    hops += 1;           // spine->core
    hops += other_pods;  // core->spine, one per remote member pod
  }
  return hops;
}

}  // namespace elmo
