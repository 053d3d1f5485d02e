#include "elmo/churn.h"

#include <algorithm>
#include <stdexcept>

namespace elmo {

CountingSink::CountingSink(Controller& controller)
    : controller_{&controller},
      counts_{std::vector<std::uint64_t>(controller.topology().num_hosts()),
              std::vector<std::uint64_t>(controller.topology().num_leaves()),
              std::vector<std::uint64_t>(controller.topology().num_spines()),
              std::vector<std::uint64_t>(controller.topology().num_cores())} {}

void CountingSink::count(const RuleSlots& change) {
  for (const auto host : change.hosts) {
    ++counts_[index(topo::Layer::kHost)].at(host);
  }
  for (const auto& [layer, id] : change.srules) {
    if (layer == topo::Layer::kHost) {
      throw std::invalid_argument{"CountingSink: host is not a network switch"};
    }
    ++counts_[index(layer)].at(id);
  }
}

void CountingSink::join(GroupId group, const Member& member) {
  controller_->join(group, member);
  count(controller_->last_change());
}

Member CountingSink::leave(GroupId group, topo::HostId host,
                           std::uint32_t vm) {
  const auto removed = controller_->leave(group, host, vm);
  count(controller_->last_change());
  return removed;
}

void CountingSink::reset() {
  for (auto& counts : counts_) std::fill(counts.begin(), counts.end(), 0);
}

CountingSink::Rates CountingSink::rates_of(
    std::span<const std::uint64_t> counts, double seconds) {
  if (seconds <= 0.0) {
    throw std::invalid_argument{
        "CountingSink: rates over a non-positive duration"};
  }
  Rates rates;
  if (counts.empty()) return rates;
  std::uint64_t peak = 0;
  for (const auto c : counts) {
    rates.total += c;
    peak = std::max(peak, c);
  }
  rates.avg = static_cast<double>(rates.total) /
              static_cast<double>(counts.size()) / seconds;
  rates.max = static_cast<double>(peak) / seconds;
  return rates;
}

CountingSink::Rates CountingSink::hypervisor_rates(double seconds) const {
  return rates_of(counts_[index(topo::Layer::kHost)], seconds);
}
CountingSink::Rates CountingSink::leaf_rates(double seconds) const {
  return rates_of(counts_[index(topo::Layer::kLeaf)], seconds);
}
CountingSink::Rates CountingSink::spine_rates(double seconds) const {
  return rates_of(counts_[index(topo::Layer::kSpine)], seconds);
}
CountingSink::Rates CountingSink::core_rates(double seconds) const {
  return rates_of(counts_[index(topo::Layer::kCore)], seconds);
}

ChurnSimulator::ChurnSimulator(Controller& controller,
                               const cloud::Cloud& cloud,
                               std::span<const GroupId> groups)
    : ChurnSimulator{controller, cloud.tenants(), groups} {}

ChurnSimulator::ChurnSimulator(Controller& controller,
                               std::span<const cloud::Tenant> tenants,
                               std::span<const GroupId> groups)
    : controller_{&controller},
      tenants_{tenants},
      groups_{groups.begin(), groups.end()} {
  if (groups_.empty()) {
    throw std::invalid_argument{"ChurnSimulator: no groups"};
  }
  membership_.reserve(groups_.size());
  weights_ = util::FenwickTree{groups_.size()};
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    const auto& g = controller.group(groups_[gi]);
    std::unordered_set<std::uint32_t> vms;
    vms.reserve(g.members.size() * 2);
    for (const auto& m : g.members) vms.insert(m.vm);
    membership_.push_back(std::move(vms));
    weights_.add(gi, static_cast<std::int64_t>(g.members.size()));
  }
}

double ChurnSimulator::run(const ChurnParams& params, util::Rng& rng) {
  std::size_t effective = 0;
  for (std::size_t e = 0; e < params.events; ++e) {
    if (step(params.min_group_size, rng)) ++effective;
  }
  // No-op attempts are not events: returning the full-attempt duration would
  // understate every updates/sec rate computed against it.
  return static_cast<double>(effective) / params.events_per_second;
}

bool ChurnSimulator::step(std::size_t min_group_size, util::Rng& rng) {
  // Pick a group with probability proportional to its *live* size: weights_
  // moves on every join/leave, so long campaigns keep sampling the actual
  // size distribution instead of the snapshot taken at construction.
  const auto gi = weights_.upper_bound(
      rng.index(static_cast<std::size_t>(weights_.total())));
  const auto id = groups_[gi];

  const auto& g = controller_->group(id);
  const auto tenant_size = tenants_[g.tenant].size();
  const bool can_grow = membership_[gi].size() < tenant_size;
  const bool must_grow = g.members.size() <= min_group_size;

  if ((must_grow || rng.bernoulli(0.5)) && can_grow) {
    do_join(gi, rng);
    return true;
  }
  if (g.members.size() > min_group_size) {
    do_leave(gi, rng);
    return true;
  }
  // Group pinned at min size and tenant exhausted — nothing was mutated.
  ++noop_events_;
  return false;
}

void ChurnSimulator::do_join(std::size_t gi, util::Rng& rng) {
  const auto id = groups_[gi];
  const auto& g = controller_->group(id);
  const auto& tenant = tenants_[g.tenant];

  std::uint32_t vm;
  do {
    vm = static_cast<std::uint32_t>(rng.index(tenant.size()));
  } while (membership_[gi].contains(vm));
  membership_[gi].insert(vm);

  Member member;
  member.vm = vm;
  member.host = tenant.vm_hosts[vm];
  member.role = static_cast<MemberRole>(rng.index(3));
  if (driver_ != nullptr) {
    driver_->join(id, member);
  } else {
    controller_->join(id, member);
  }
  weights_.add(gi, 1);
  ++joins_;
}

void ChurnSimulator::do_leave(std::size_t gi, util::Rng& rng) {
  const auto id = groups_[gi];
  const auto& g = controller_->group(id);
  const auto victim = g.members[rng.index(g.members.size())];
  // Leave by (host, vm): leaving by host alone removes the *first* member on
  // that host, which desyncs this mirror whenever two VMs of the group share
  // a host (co-located placement, P >= 2).
  const auto removed = driver_ != nullptr
                           ? driver_->leave(id, victim.host, victim.vm)
                           : controller_->leave(id, victim.host, victim.vm);
  membership_[gi].erase(removed.vm);
  weights_.add(gi, -1);
  ++leaves_;
}

}  // namespace elmo
