// Group-membership churn driver and update-rate accounting (paper §5.1.3a,
// Table 2).
//
// Join/leave events are generated with per-group frequency proportional to
// group size; joining VMs are drawn uniformly from the tenant's VMs not in
// the group, leaving members uniformly from current members; each member
// carries a random role (sender / receiver / both). The CountingSink
// tallies every switch each controller change set (RuleSlots) names, so the
// bench can report average and maximum per-switch update rates.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "cloud/cloud.h"
#include "elmo/controller.h"
#include "util/fenwick.h"
#include "util/rng.h"
#include "util/stats.h"

namespace elmo {

struct ChurnParams {
  std::size_t events = 100'000;
  double events_per_second = 1000.0;  // the paper's churn intensity
  std::size_t min_group_size = 5;
};

// Where ChurnSimulator routes the membership mutations it generates. The
// default routes straight into the Controller (batch semantics); the
// streaming ControlPlane implements this to ingest the same events as
// coalesced delta installs.
class MembershipDriver {
 public:
  virtual ~MembershipDriver() = default;
  virtual void join(GroupId group, const Member& member) = 0;
  virtual Member leave(GroupId group, topo::HostId host, std::uint32_t vm) = 0;
};

// Counts controller change sets per switch: count() one directly (a
// failure's, a create_group's), or hand the sink to
// ChurnSimulator::set_driver and it counts each join's and leave's
// last_change() after forwarding the call to its controller.
class CountingSink final : public MembershipDriver {
 public:
  explicit CountingSink(Controller& controller);

  // One update to each hypervisor and network switch `change` names.
  // Throws std::invalid_argument for a kHost s-rule slot.
  void count(const RuleSlots& change);

  void join(GroupId group, const Member& member) override;
  Member leave(GroupId group, topo::HostId host, std::uint32_t vm) override;

  void reset();

  struct Rates {
    double avg = 0.0;  // mean updates/sec across all switches of the type
    double max = 0.0;  // the busiest switch of the type
    std::uint64_t total = 0;
  };
  // `seconds` is the simulated wall-clock the counted events span. Throws
  // std::invalid_argument when seconds <= 0 — a miswired bench used to get
  // silent all-zero rates and record them as data.
  Rates hypervisor_rates(double seconds) const;
  Rates leaf_rates(double seconds) const;
  Rates spine_rates(double seconds) const;
  Rates core_rates(double seconds) const;

 private:
  static Rates rates_of(std::span<const std::uint64_t> counts, double seconds);
  static constexpr std::size_t index(topo::Layer layer) {
    return static_cast<std::size_t>(layer);
  }

  Controller* controller_;
  // Updates per switch, at index(layer) (kHost: the hypervisors).
  std::array<std::vector<std::uint64_t>, 4> counts_;
};

class ChurnSimulator {
 public:
  // `groups` are controller group ids; `cloud` provides the tenant VM pools
  // joins are drawn from.
  ChurnSimulator(Controller& controller, const cloud::Cloud& cloud,
                 std::span<const GroupId> groups);

  // Same, over an explicit tenant table (must outlive the simulator). Lets
  // tests and the verify harness drive churn over hand-built placements,
  // including tenants with several VMs on one host (vm_hosts entries may
  // repeat), which the Cloud placer never produces.
  ChurnSimulator(Controller& controller, std::span<const cloud::Tenant> tenants,
                 std::span<const GroupId> groups);

  // Routes subsequent events through `driver` instead of the Controller
  // directly (nullptr restores the default). The driver must mutate the same
  // Controller this simulator reads its group state from.
  void set_driver(MembershipDriver* driver) noexcept { driver_ = driver; }

  // Runs `params.events` event attempts; returns the *effective* simulated
  // duration in seconds — attempts that were silent no-ops (group pinned at
  // min size with its tenant exhausted) are excluded, so rates computed
  // against this duration are not diluted under tight tenant packing.
  double run(const ChurnParams& params, util::Rng& rng);

  // One join-or-leave event (the body of run()'s loop), for callers that
  // validate invariants between events. Returns false when the attempt was
  // a no-op (nothing was mutated).
  bool step(std::size_t min_group_size, util::Rng& rng);

  std::size_t joins() const noexcept { return joins_; }
  std::size_t leaves() const noexcept { return leaves_; }
  // Attempts that mutated nothing (counted, never silently folded into
  // event totals or rate denominators).
  std::size_t noop_events() const noexcept { return noop_events_; }

  // Tenant-local VM indices the simulator believes are in group `gi` (index
  // into the constructor's group list, not a GroupId).
  const std::unordered_set<std::uint32_t>& membership(std::size_t gi) const {
    return membership_.at(gi);
  }
  GroupId group_id(std::size_t gi) const { return groups_.at(gi); }
  std::size_t num_groups() const noexcept { return groups_.size(); }

  // Live sampling weight of group `gi` (its current size). Kept in lockstep
  // with joins/leaves via a Fenwick tree so long campaigns stay
  // size-proportional as groups grow and shrink.
  std::uint64_t sampling_weight(std::size_t gi) const {
    return weights_.weight(gi);
  }

 private:
  void do_join(std::size_t group_index, util::Rng& rng);
  void do_leave(std::size_t group_index, util::Rng& rng);

  Controller* controller_;
  std::span<const cloud::Tenant> tenants_;
  std::vector<GroupId> groups_;
  MembershipDriver* driver_ = nullptr;
  // Tenant-local VM indices currently in each group (parallel to groups_).
  std::vector<std::unordered_set<std::uint32_t>> membership_;
  util::FenwickTree weights_;
  std::size_t joins_ = 0;
  std::size_t leaves_ = 0;
  std::size_t noop_events_ = 0;
};

}  // namespace elmo
