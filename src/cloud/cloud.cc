#include "cloud/cloud.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/span.h"

namespace elmo::cloud {
namespace {

// Tenants per speculative placement round. A fixed constant — never derived
// from the thread count — so the round-start snapshots, and therefore the
// placement, are identical no matter how many workers execute a round.
constexpr std::size_t kPlacementRound = 64;

struct CloudMetricIds {
  obs::MetricsRegistry::Id placement_seconds;
  obs::MetricsRegistry::Id tenants_placed;
  CloudMetricIds() {
    auto& reg = obs::MetricsRegistry::global();
    placement_seconds = reg.histogram(
        "elmo_cloud_placement_seconds", obs::latency_bounds(),
        "Full tenant VM placement (speculative rounds + commits)");
    tenants_placed =
        reg.counter("elmo_cloud_tenants_placed_total", "Tenants placed");
  }
};

CloudMetricIds& cloud_metric_ids() {
  static CloudMetricIds ids;
  return ids;
}

}  // namespace

Cloud::Cloud(const topo::ClosTopology& topology, const CloudParams& params,
             util::Rng& rng, util::ThreadPool* pool)
    : topology_{&topology}, params_{params} {
  host_load_.assign(topology.num_hosts(), 0);
  leaf_free_slots_.assign(
      topology.num_leaves(),
      static_cast<std::uint32_t>(topology.params().hosts_per_leaf *
                                 params.max_vms_per_host));

  std::optional<obs::Span> span;
  obs::arm_phase_span(span, "cloud:placement",
                      cloud_metric_ids().placement_seconds);
  ELMO_METRIC(reg.add(cloud_metric_ids().tenants_placed, params.tenants));

  const std::uint64_t seed = rng();
  // Tenant sizes first (stream per tenant), so placement knows every count.
  std::vector<std::size_t> sizes(params.tenants, 0);
  util::parallel_for(pool, 0, params.tenants, [&](std::size_t t) {
    auto trng = util::Rng::stream(seed, t);
    sizes[t] = sample_tenant_size(trng);
  });

  tenants_.resize(params.tenants);
  for (std::size_t t = 0; t < params.tenants; ++t) {
    tenants_[t].id = static_cast<TenantId>(t);
  }

  // Speculative round placement (see header comment / DESIGN.md §5). The
  // placement stream is salted so it is independent of the size stream.
  constexpr std::uint64_t kPlaceSalt = 0x706c6163656d656eULL;  // "placemen"
  for (std::size_t round = 0; round < params.tenants;
       round += kPlacementRound) {
    const std::size_t round_end =
        std::min(params.tenants, round + kPlacementRound);
    const auto snapshot_hosts = host_load_;
    const auto snapshot_leaves = leaf_free_slots_;

    util::parallel_for(pool, round, round_end, [&](std::size_t t) {
      auto prng = util::Rng::stream(seed ^ kPlaceSalt, t);
      auto hosts = snapshot_hosts;   // per-tenant mutable view
      auto leaves = snapshot_leaves;
      place_tenant(tenants_[t], sizes[t], prng, hosts, leaves);
    });

    // In-order commit: a tenant's speculative placement is valid iff every
    // chosen host still has a free slot after all earlier commits (the
    // per-tenant constraints — distinct hosts, the co-location cap P — only
    // involve its own choices and hold by construction).
    for (std::size_t t = round; t < round_end; ++t) {
      auto& tenant = tenants_[t];
      const bool fits = std::all_of(
          tenant.vm_hosts.begin(), tenant.vm_hosts.end(),
          [&](topo::HostId h) {
            return host_load_[h] < params_.max_vms_per_host;
          });
      if (fits) {
        for (const auto h : tenant.vm_hosts) {
          ++host_load_[h];
          --leaf_free_slots_[topology.leaf_of_host(h)];
        }
      } else {
        tenant.vm_hosts.clear();
        auto prng = util::Rng::stream(seed ^ kPlaceSalt, t);
        place_tenant(tenant, sizes[t], prng, host_load_, leaf_free_slots_);
      }
      total_vms_ += tenant.size();
    }
  }
}

std::size_t Cloud::sample_tenant_size(util::Rng& rng) const {
  // Shifted exponential: min + Exp(mean - min), truncated at max. Matches the
  // paper's min/mean/max exactly; the median lands near 127 (the paper
  // reports 97 for their draw, which a pure exponential cannot produce
  // jointly with mean 178.77 — we prioritize the mean, which determines
  // total VM load on the fabric).
  const auto lo = static_cast<double>(params_.min_vms_per_tenant);
  const auto hi = static_cast<double>(params_.max_vms_per_tenant);
  const double mean_excess = params_.mean_vms_per_tenant - lo;
  double size = lo + (mean_excess > 0 ? rng.exponential(mean_excess) : 0.0);
  size = std::min(size, hi);
  return static_cast<std::size_t>(std::llround(size));
}

void Cloud::place_tenant(Tenant& tenant, std::size_t vm_count,
                         util::Rng& rng,
                         std::vector<std::uint16_t>& host_load,
                         std::vector<std::uint32_t>& leaf_free_slots) const {
  const auto& topo = *topology_;
  std::unordered_set<topo::HostId> used_hosts;
  used_hosts.reserve(vm_count * 2);
  tenant.vm_hosts.reserve(vm_count);
  std::unordered_map<topo::LeafId, std::uint32_t> tenant_on_leaf;

  // The co-location cap P ("at most P VMs of a tenant per rack") is honored
  // strictly while any rack in the fabric can still take a VM under it;
  // only tenants too large for a strict placement (e.g. 5,000 VMs at P=1 on
  // 576 racks) relax it, as the paper's procedure implies.
  bool strict = true;

  // Hosts under `leaf` that can still take one VM of this tenant.
  auto usable_hosts_under = [&](topo::LeafId leaf) {
    std::vector<topo::HostId> hosts;
    if (strict) {
      const auto it = tenant_on_leaf.find(leaf);
      if (it != tenant_on_leaf.end() && it->second >= params_.colocation) {
        return hosts;
      }
    }
    for (std::size_t port = 0; port < topo.leaf_down_ports(); ++port) {
      const auto host = topo.host_at(leaf, port);
      if (host_load[host] < params_.max_vms_per_host &&
          !used_hosts.contains(host)) {
        hosts.push_back(host);
      }
    }
    return hosts;
  };

  auto place_on = [&](topo::HostId host) {
    ++host_load[host];
    --leaf_free_slots[topo.leaf_of_host(host)];
    ++tenant_on_leaf[topo.leaf_of_host(host)];
    used_hosts.insert(host);
    tenant.vm_hosts.push_back(host);
  };

  std::size_t remaining = vm_count;
  // The paper's procedure: pick a pod uniformly at random and keep packing
  // leaves inside it (up to P VMs of this tenant per leaf visit) until the
  // pod has no usable capacity left, then pick another pod. Tenants
  // therefore stay as pod-local as capacity allows -- the property the
  // spine-layer encoding relies on.
  std::vector<std::uint8_t> pod_exhausted(topo.num_pods(), 0);
  while (remaining > 0) {
    // Pick a pod: random probes first, then a deterministic sweep.
    topo::PodId pod = static_cast<topo::PodId>(topo.num_pods());
    for (std::size_t probe = 0; probe < 2 * topo.num_pods(); ++probe) {
      const auto candidate =
          static_cast<topo::PodId>(rng.index(topo.num_pods()));
      if (!pod_exhausted[candidate]) {
        pod = candidate;
        break;
      }
    }
    if (pod == topo.num_pods()) {
      for (topo::PodId candidate = 0; candidate < topo.num_pods();
           ++candidate) {
        if (!pod_exhausted[candidate]) {
          pod = candidate;
          break;
        }
      }
    }
    if (pod == topo.num_pods()) {
      if (strict) {
        // Every pod is exhausted under the strict per-rack cap: relax it and
        // keep going (large tenants inevitably exceed P per rack).
        strict = false;
        std::fill(pod_exhausted.begin(), pod_exhausted.end(), 0);
        continue;
      }
      throw std::runtime_error{
          "Cloud: out of placement capacity (tenant " +
          std::to_string(tenant.id) + ", " + std::to_string(remaining) +
          " VMs unplaced)"};
    }

    // Fill leaves within this pod until it has nothing usable left.
    bool pod_usable = true;
    while (remaining > 0 && pod_usable) {
      std::vector<topo::HostId> candidates;
      const std::size_t leaf_probes = 3 * topo.params().leaves_per_pod;
      for (std::size_t probe = 0; probe < leaf_probes; ++probe) {
        const auto leaf =
            topo.leaf_at(pod, rng.index(topo.params().leaves_per_pod));
        if (leaf_free_slots[leaf] == 0) continue;
        candidates = usable_hosts_under(leaf);
        if (!candidates.empty()) break;
      }
      if (candidates.empty()) {
        for (std::size_t li = 0;
             li < topo.params().leaves_per_pod && candidates.empty(); ++li) {
          const auto leaf = topo.leaf_at(pod, li);
          if (leaf_free_slots[leaf] == 0) continue;
          candidates = usable_hosts_under(leaf);
        }
      }
      if (candidates.empty()) {
        pod_usable = false;
        pod_exhausted[pod] = 1;
        break;
      }
      rng.shuffle(std::span<topo::HostId>{candidates});
      std::size_t quota = params_.colocation;
      if (strict) {
        const auto leaf = topo.leaf_of_host(candidates.front());
        const auto it = tenant_on_leaf.find(leaf);
        const auto already = it == tenant_on_leaf.end() ? 0u : it->second;
        quota = params_.colocation - std::min<std::uint32_t>(
                                         already, params_.colocation);
      }
      const std::size_t take =
          std::min({candidates.size(), quota, remaining});
      for (std::size_t i = 0; i < take; ++i) place_on(candidates[i]);
      remaining -= take;
    }
    // Exhaustion is per-tenant (distinct-host rule), so recompute lazily.
    if (remaining > 0 && !pod_usable) continue;
  }
}

std::size_t sample_wve_group_size(util::Rng& rng) {
  // Three-segment mixture fitted to the WVE summary statistics the paper
  // reports (avg 60; ~80% of groups <= 61 members; ~0.6% > 700):
  //   0.800  uniform [5, 61]                 (mean 33)
  //   0.194  61 + Exp(78), resampled > 700   (mean ~139)
  //   0.006  uniform [701, 1500]             (mean ~1100)
  // Mixture mean = 0.8*33 + 0.194*139 + 0.006*1100 ~= 60.
  const double r = rng.uniform();
  if (r < 0.800) {
    return static_cast<std::size_t>(rng.uniform_int(5, 61));
  }
  if (r < 0.994) {
    double size;
    do {
      size = 61.0 + rng.exponential(78.0);
    } while (size > 700.0);
    return static_cast<std::size_t>(std::llround(size));
  }
  return static_cast<std::size_t>(rng.uniform_int(701, 1500));
}

GroupWorkload::GroupWorkload(const Cloud& cloud, const WorkloadParams& params,
                             util::Rng& rng, util::ThreadPool* pool)
    : params_{params} {
  const auto tenants = cloud.tenants();
  // Tenants too small to host a minimum-size group get no groups.
  std::size_t eligible_vms = 0;
  for (const auto& tenant : tenants) {
    if (tenant.size() >= params.min_group_size) eligible_vms += tenant.size();
  }
  if (eligible_vms == 0) {
    throw std::runtime_error{"GroupWorkload: no tenant can host a group"};
  }

  // Groups per tenant proportional to tenant size (largest-remainder
  // rounding so counts sum exactly to total_groups).
  std::vector<std::size_t> quota(tenants.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].size() < params.min_group_size) continue;
    const double share = static_cast<double>(params.total_groups) *
                         static_cast<double>(tenants[t].size()) /
                         static_cast<double>(eligible_vms);
    quota[t] = static_cast<std::size_t>(share);
    assigned += quota[t];
    remainders.emplace_back(share - std::floor(share), t);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < params.total_groups && !remainders.empty();
       ++i) {
    ++quota[remainders[i % remainders.size()].second];
    ++assigned;
  }

  // Owner tenant of each group index (quotas are contiguous runs).
  std::vector<TenantId> owner(params.total_groups);
  std::size_t next = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    std::fill_n(owner.begin() + static_cast<std::ptrdiff_t>(next), quota[t],
                static_cast<TenantId>(t));
    next += quota[t];
  }

  // Each group samples from its own stream — embarrassingly parallel, and
  // bit-identical at any thread count (see the header comment).
  const std::uint64_t seed = rng();
  groups_.resize(params.total_groups);
  auto sample_group = [&](std::size_t g) {
    auto grng = util::Rng::stream(seed, g);
    const auto& tenant = tenants[owner[g]];
    std::size_t size = 0;
    switch (params.size_dist) {
      case GroupSizeDist::kWve:
        size = sample_wve_group_size(grng);
        break;
      case GroupSizeDist::kUniform:
        size = static_cast<std::size_t>(grng.uniform_int(
            static_cast<std::int64_t>(params.min_group_size),
            static_cast<std::int64_t>(tenant.size())));
        break;
    }
    size = std::clamp(size, params.min_group_size, tenant.size());

    Group& group = groups_[g];
    group.tenant = tenant.id;
    group.member_vms.reserve(size);
    group.member_hosts.reserve(size);
    for (const auto vm : grng.sample_indices(tenant.size(), size)) {
      group.member_vms.push_back(static_cast<std::uint32_t>(vm));
      group.member_hosts.push_back(tenant.vm_hosts[vm]);
    }
  };
  util::parallel_for(pool, 0, params.total_groups, sample_group);
}

}  // namespace elmo::cloud
