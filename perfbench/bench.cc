// End-to-end benchmark of the Elmo system: two closed-loop workloads on a
// paper-scale Clos fabric (12 pods x 48 leaves x 48 hosts = 27,648 hosts),
// fed by the paper's cloud model (§5.1.1, src/cloud): tenants placed with
// P = 1, groups with sizes from the WVE trace distribution (minimum 5), one
// random role per member, and ChurnSimulator's size-proportional joins and
// leaves streamed through stream::ControlPlane. One client issues the next
// operation only after the previous one returned.
//
//   send_fanout   op = one 64-byte multicast send from a random sending
//                 member of the next group in a round-robin over all groups
//                 (reshuffled every pass), walked through the fabric. Every
//                 1,024 sends one churn event is installed at once, so
//                 installs stay live at a low rate.
//   join_probe    op = one churn event, installed at once, then a probe send
//                 from a sending member of the changed group: time-to-effect
//                 across both planes.
//
// Usage: elmo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The cloud (placement, memberships and roles) is one fixed draw of the
// model; the event order and the choice of groups and senders come from
// --seed.
// Every send is checked against a membership mirror kept here, fed by the
// churn events as ChurnSimulator issues them: each receiving member's host
// (other than the sender's) gets exactly one copy and the VM delivery count
// matches. After the loop the controller and the simulator must agree with
// the mirror, and the streamed fabric must digest-equal a fresh batch install.
//
// Latency is reported per group-size stratum, so neither hides the other: the
// 90th percentile over the ops on groups of at most 64 members (the typical
// group: the WVE mean is about 60) and the 99th over the ops on larger
// groups. A small group's walk lasts a few hundred microseconds, so short
// stalls of a shared host fill the small stratum's 99th percentile; a large
// group's walk outlasts them. --trace 0 prints those and the set-up time
// (generating the cloud and groups, building the controller and fabric,
// encoding and installing every group, starting the control plane and churn
// simulator), the median of kSetups set-ups made one after the other. Every
// time is scaled to a reference machine speed (see Yardstick). --trace 1
// attaches the tracer to the control plane and the fabric (time-to-effect
// watches on) and prints per-layer numbers instead: the traced latencies,
// time per op in each layer (benchmark spans around fabric and control-plane
// calls, split by the tracer's stage spans), join-to-first-delivery, set-up
// stages, and per-op counts from the switch, hypervisor, copy and
// control-plane counters.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <memory_resource>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cloud/cloud.h"
#include "elmo/churn.h"
#include "elmo/controller.h"
#include "elmo/stream.h"
#include "net/packet.h"
#include "obs/trace.h"
#include "sim/fabric.h"
#include "topology/clos.h"
#include "util/rng.h"

namespace {

using namespace elmo;
using Clock = std::chrono::steady_clock;

double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key{argv[i]};
    const std::string value{argv[i + 1]};
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else {
      throw std::invalid_argument{"unknown argument " + std::string{key}};
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument{"arguments come in pairs"};
  if (args.seconds <= 0) throw std::invalid_argument{"--seconds must be > 0"};
  return args;
}

enum class OpKind { kSend, kJoinProbe };

struct WorkloadSpec {
  const char* name;
  OpKind op;
};

const WorkloadSpec kWorkloads[] = {
    {"send_fanout", OpKind::kSend},
    {"join_probe", OpKind::kJoinProbe},
};

constexpr std::size_t kGroups = 1024;  // set-up costs about 1 ms per group
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kMinGroupSize = 5;     // the paper's minimum
constexpr std::size_t kSmallGroupMax = 64;   // latency strata boundary
constexpr std::size_t kDriftEvery = 1024;    // send_fanout background churn
constexpr std::size_t kHarvestEvery = 64;    // ops between tracer harvests
constexpr double kWarmupShare = 0.05;        // of --seconds, untimed
constexpr int kSetups = 5;                   // setup_s is their median
constexpr auto kSampleEvery = std::chrono::milliseconds{20};  // yardstick
// Tenants, groups and roles are one draw of the paper's model, the same for
// every --seed (bench/figlib's default seed). With a thousand groups, the few
// largest groups of a draw would otherwise decide the large-group tail and
// most of the (size-proportional) churn, the roles in the few largest groups
// of each stratum would move its tail, and runs would compare different
// clouds.
constexpr std::uint64_t kModelSeed = 2019;

// The inputs of one run: the paper's tenant placement and group workload,
// scaled like bench/controller_churn (3,000 tenants per million groups, at
// least 20), and one random role per member, all drawn from `model_rng`.
struct Inputs {
  Inputs(const topo::ClosTopology& topology, std::size_t groups,
         util::Rng& model_rng)
      : cloud{topology, cloud_params(groups), model_rng},
        workload{cloud, workload_params(groups), model_rng} {
    const auto gs = workload.groups();
    members.resize(gs.size());
    specs.reserve(gs.size());
    for (std::size_t gi = 0; gi < gs.size(); ++gi) {
      for (std::size_t i = 0; i < gs[gi].size(); ++i) {
        const auto role = static_cast<MemberRole>(model_rng.index(3));
        members[gi].push_back(
            Member{gs[gi].member_hosts[i], gs[gi].member_vms[i], role});
      }
      specs.push_back({gs[gi].tenant, members[gi]});
    }
  }
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  static cloud::CloudParams cloud_params(std::size_t groups) {
    cloud::CloudParams params;  // the paper's tenant size distribution
    params.tenants = std::max<std::size_t>(20, groups * 3000 / 1'000'000);
    params.colocation = 1;  // P = 1: a tenant's VMs spread over leaves
    return params;
  }
  static cloud::WorkloadParams workload_params(std::size_t groups) {
    cloud::WorkloadParams params;  // WVE sizes, minimum 5
    params.total_groups = groups;
    return params;
  }

  cloud::Cloud cloud;
  cloud::GroupWorkload workload;
  std::vector<std::vector<Member>> members;
  std::vector<Controller::GroupSpec> specs;  // spans into members
};

EncoderConfig encoder_config() {
  EncoderConfig config;
  config.redundancy_limit = 12;  // paper operating point
  return config;
}

// Controller, fabric, streaming control plane and churn source of one run.
// The plane keeps pointers to the controller and fabric, so the system never
// moves.
struct System {
  // Every event is flushed explicitly: auto-flush never fires.
  explicit System(const topo::ClosTopology& topology)
      : controller{topology, encoder_config()},
        fabric{topology},
        plane{controller, fabric,
              stream::ControlPlaneOptions{
                  std::numeric_limits<std::size_t>::max()}} {}
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Controller controller;
  sim::Fabric fabric;
  stream::ControlPlane plane;
  std::vector<GroupId> ids;
  std::optional<ChurnSimulator> churn;
};

struct SetupTimes {
  double workload_s = 0;  // cloud placement, group workload and roles
  double fabric_s = 0;    // controller, fabric and plane construction
  double encode_s = 0;    // create_groups: trees + encoding
  double install_s = 0;   // install_group for every group
  double track_s = 0;     // control plane and churn simulator adopt the groups
  double total() const {
    return workload_s + fabric_s + encode_s + install_s + track_s;
  }
};

std::unique_ptr<System> set_up(const topo::ClosTopology& topology,
                               const Inputs& inputs, SetupTimes& times) {
  auto t0 = Clock::now();
  auto sys = std::make_unique<System>(topology);
  auto t1 = Clock::now();
  times.fabric_s = micros(t0, t1) * 1e-6;

  t0 = Clock::now();
  sys->ids = sys->controller.create_groups(inputs.specs);
  t1 = Clock::now();
  times.encode_s = micros(t0, t1) * 1e-6;

  t0 = Clock::now();
  for (const auto id : sys->ids) sys->fabric.install_group(sys->controller, id);
  t1 = Clock::now();
  times.install_s = micros(t0, t1) * 1e-6;

  t0 = Clock::now();
  for (const auto id : sys->ids) sys->plane.track_group(id);
  sys->churn.emplace(sys->controller, inputs.cloud, sys->ids);
  t1 = Clock::now();
  times.track_s = micros(t0, t1) * 1e-6;
  return sys;
}

// What the benchmark believes a group holds; sends are checked against it.
struct GroupMirror {
  GroupId id = 0;
  net::Ipv4Address address;
  std::vector<Member> members;
  std::unordered_map<topo::HostId, std::uint32_t> receiving_vms;

  void add(const Member& m) {
    members.push_back(m);
    if (can_receive(m.role)) ++receiving_vms[m.host];
  }
  bool remove(topo::HostId host, std::uint32_t vm) {
    const auto it = std::find_if(
        members.begin(), members.end(),
        [&](const Member& m) { return m.host == host && m.vm == vm; });
    if (it == members.end()) return false;
    if (can_receive(it->role) && --receiving_vms[host] == 0) {
      receiving_vms.erase(host);
    }
    *it = members.back();
    members.pop_back();
    return true;
  }
};

// Every receiving member's host except the sender's gets exactly one copy,
// no host gets more, and each copy reaches exactly the host's receiving VMs.
// Copies to hosts without receivers (shared p-rules, default rules) are
// allowed; their hypervisors discard them.
bool delivered_correctly(const GroupMirror& g, topo::HostId sender,
                         const sim::SendResult& r) {
  for (const auto& [host, vms] : g.receiving_vms) {
    if (host == sender) continue;
    const auto it = r.host_copies.find(host);
    if (it == r.host_copies.end() || it->second != 1) return false;
  }
  std::size_t want_vms = 0;
  for (const auto& [host, copies] : r.host_copies) {
    if (host == sender || copies != 1) return false;
    const auto it = g.receiving_vms.find(host);
    if (it != g.receiving_vms.end()) want_vms += it->second;
  }
  return r.vm_deliveries == want_vms;
}

// Control-plane stage self times read from the tracer's spans.
struct StageTimes {
  double reencode_us = 0;
  double delta_diff_us = 0;
  double p4rt_encode_us = 0;
  double p4rt_decode_us = 0;
  double apply_us = 0;
  double total() const {
    return reencode_us + delta_diff_us + p4rt_encode_us + p4rt_decode_us +
           apply_us;
  }
};

// Span durations are multiplied by `scale` (see Yardstick).
void harvest(obs::Tracer& tracer, double scale, StageTimes& st) {
  for (const auto& rec : tracer.snapshot()) {
    if (rec.kind != obs::SpanRecord::Kind::kSpan || rec.dur_us < 0) continue;
    const std::string_view name{rec.name};
    const double us = rec.dur_us * scale;
    if (name == "reencode") {
      st.reencode_us += us;
    } else if (name == "delta_diff") {
      st.delta_diff_us += us;
    } else if (name == "p4rt_encode") {
      st.p4rt_encode_us += us;
    } else if (name == "p4rt_decode") {
      st.p4rt_decode_us += us;
    } else if (name.starts_with("install")) {
      st.apply_us += us;
    }
  }
  tracer.clear();
}

// Data-plane and control-plane counters, read before and after the loop.
struct Counters {
  dp::SwitchStats leaf, spine, core;
  dp::HypervisorStats hyp;
  net::CopyStats copies;
  stream::ControlPlaneStats plane;

  static Counters read(const System& sys) {
    Counters c;
    c.leaf = sys.fabric.aggregate_switch_stats(topo::Layer::kLeaf);
    c.spine = sys.fabric.aggregate_switch_stats(topo::Layer::kSpine);
    c.core = sys.fabric.aggregate_switch_stats(topo::Layer::kCore);
    c.hyp = sys.fabric.aggregate_hypervisor_stats();
    c.copies = net::copy_stats();
    const auto& st = sys.plane.stats();
    c.plane.wire_bytes = st.wire_bytes;
    c.plane.updates_applied = st.updates_applied;
    return c;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Nearest-rank percentile.
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) throw std::runtime_error{"no op in a latency stratum"};
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// Machine-speed yardstick. On a shared host the machine runs up to about
// twice as slow for tens of seconds at a time (contention for the hardware,
// not for the CPU: user time equals wall time), and every timing follows.
// Every kSampleEvery, between ops, the benchmark times a fixed pass of its
// own code that does what a walk does at each hop — look a key up in a hash
// table, allocate a packet, copy bytes into it, queue it, and later drain the
// queue — and scales each timing by (kNominalUs / p)^kSensitivity, p being
// the median of the last kWindow passes. Times are thus reported in
// microseconds of a machine on which one pass takes kNominalUs. The pass
// allocates from a pool of its own, so the state the program leaves its heap
// in cannot slow it, and no Elmo code runs in it, so a change to Elmo moves
// the scaled times exactly as much as the raw ones.
//
// On a 4-core Xeon VM the pass's speed follows the ops' over 2-second
// intervals (correlation 0.6 to 0.9), but the ops, which reach further into
// memory, slow more: over ten 30-second runs of both workloads, each p99
// latency scaled by kNominalUs / p still grew as p^0.1 to p^0.54 (mean 0.35),
// hence kSensitivity.
class Yardstick {
 public:
  static constexpr double kNominalUs = 100;
  static constexpr double kSensitivity = 1.35;

  Yardstick() : bytes_(kMaxPacket, 0x5a), arena_(kArenaBytes) {
    table_.reserve(kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) table_.emplace(key(k), k);
  }

  // Times one pass, after kWarmPasses untimed ones that bring its data into
  // cache whatever ran before, and adds it to the window. With a single warm
  // pass the timed one still ran about a third slower after join_probe's ops
  // than after send_fanout's.
  void sample() {
    for (int i = 0; i < kWarmPasses; ++i) pass();
    const auto t0 = Clock::now();
    pass();
    const double us = micros(t0, Clock::now());
    window_[taken_++ % kWindow] = us;
    all_.push_back(us);
  }

  // Fills the window afresh.
  void calibrate() {
    for (std::size_t i = 0; i < kWindow; ++i) sample();
  }

  double scale() const {
    auto w = window_;
    const auto n = std::min(taken_, kWindow);
    std::nth_element(w.begin(), w.begin() + n / 2, w.begin() + n);
    return std::pow(kNominalUs / w[n / 2], kSensitivity);
  }

  double scaled_us(Clock::time_point from, Clock::time_point to) const {
    return micros(from, to) * scale();
  }

  // For the log: the median pass over the whole run, and the checksum that
  // keeps the passes from being optimized away.
  double median_pass_us() { return percentile(all_, 50); }
  std::uint64_t checksum() const { return sink_; }

 private:
  static std::uint64_t key(std::uint64_t k) {
    return k * 0x9e3779b97f4a7c15ULL;
  }

  void pass() {
    std::pmr::deque<std::pmr::vector<std::uint8_t>> queue{&pool_};
    std::uint64_t acc = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kPackets; ++i) {
        acc += table_.find(key((acc + i) % kKeys))->second;
        std::pmr::vector<std::uint8_t> packet(kMinPacket + i * 37 % 64,
                                              &pool_);
        std::memcpy(packet.data(), bytes_.data(), packet.size());
        queue.push_back(std::move(packet));
      }
      for (; !queue.empty(); queue.pop_front()) {
        acc += queue.front().back() + queue.front().size();
      }
    }
    sink_ += acc;
  }

  static constexpr std::uint64_t kKeys = 1u << 16;
  static constexpr int kRounds = 8;
  static constexpr std::size_t kPackets = 200;
  static constexpr std::size_t kMinPacket = 150;
  static constexpr std::size_t kMaxPacket = kMinPacket + 64;
  static constexpr int kWarmPasses = 3;
  static constexpr std::size_t kWindow = 9;
  static constexpr std::size_t kArenaBytes = 4u << 20;

  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::byte> arena_;
  std::pmr::monotonic_buffer_resource upstream_{
      arena_.data(), arena_.size(), std::pmr::null_memory_resource()};
  std::pmr::unsynchronized_pool_resource pool_{&upstream_};
  std::array<double, kWindow> window_{};
  std::size_t taken_ = 0;
  std::vector<double> all_;
  std::uint64_t sink_ = 0;
};

// Runs the closed loop. It is also ChurnSimulator's membership driver: each
// event goes to the control plane (timed) and then to the mirror.
class Runner final : public MembershipDriver {
 public:
  Runner(const WorkloadSpec& spec, const Args& args,
         const topo::ClosTopology& topology, System& sys,
         const Inputs& inputs, Yardstick& yard)
      : spec_{spec}, args_{args}, topo_{topology}, sys_{sys}, yard_{yard},
        rng_{args.seed ^ 0xe1d0'0b5e'7c4a'11edULL} {
    for (std::size_t gi = 0; gi < inputs.members.size(); ++gi) {
      GroupMirror g;
      g.id = sys.ids[gi];
      g.address = sys.controller.group(g.id).address;
      for (const auto& m : inputs.members[gi]) g.add(m);
      index_.emplace(g.id, gi);
      groups_.push_back(std::move(g));
      order_.push_back(gi);
    }
    next_in_order_ = order_.size();  // shuffle before the first send
    sys_.churn->set_driver(this);
    // Both tracers: the control plane's spans and the fabric's
    // time-to-effect watches.
    if (args.trace) sys_.plane.set_tracer(&tracer_);
  }
  // The tracer stays attached through final_check: the fabric reads it on
  // every delivery while time-to-effect watches are open.
  ~Runner() override { sys_.plane.set_tracer(nullptr); }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  std::vector<Metric> run() {
    const auto start = Clock::now();
    const auto at = [&](double share) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args_.seconds * share));
    };
    auto next_sample = start;
    // Times one yardstick pass every kSampleEvery, between ops.
    const auto pace = [&] {
      if (const auto now = Clock::now(); now >= next_sample) {
        yard_.sample();
        next_sample = now + kSampleEvery;
      }
    };
    while (Clock::now() < at(kWarmupShare)) {
      step();
      pace();
    }
    reset_measurement();

    const auto before = Counters::read(sys_);
    std::size_t steps = 0;
    while (Clock::now() < at(1.0)) {
      if (step()) ++ops_;
      if (args_.trace && ++steps % kHarvestEvery == 0) {
        harvest(tracer_, yard_.scale(), stages_);
      }
      pace();
    }
    if (args_.trace) harvest(tracer_, yard_.scale(), stages_);
    const auto after = Counters::read(sys_);
    return args_.trace ? layer_metrics(before, after) : latency_metrics("");
  }

  // Post-run checks: the controller and the churn simulator hold exactly the
  // mirrored memberships, every group delivers correctly from a sender, and
  // the streamed fabric equals a fresh batch install of the controller's
  // final state.
  bool final_check() {
    bool ok = mirror_ok_;
    const auto key = [](const Member& m) {
      return std::make_tuple(m.host, m.vm, static_cast<int>(m.role));
    };
    const auto less = [&](const Member& a, const Member& b) {
      return key(a) < key(b);
    };
    const auto same = [&](const Member& a, const Member& b) {
      return key(a) == key(b);
    };
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      const auto& g = groups_[gi];
      auto want = g.members;
      auto have = sys_.controller.group(g.id).members;
      std::sort(want.begin(), want.end(), less);
      std::sort(have.begin(), have.end(), less);
      ok = ok && std::equal(want.begin(), want.end(), have.begin(), have.end(),
                            same);
      const auto& vms = sys_.churn->membership(gi);
      ok = ok && vms.size() == want.size() &&
           std::all_of(want.begin(), want.end(),
                       [&](const Member& m) { return vms.contains(m.vm); });
      if (const auto sender = pick_sender(g)) {
        ok = ok && delivered_correctly(
                       g, *sender,
                       sys_.fabric.send(*sender, g.address, kPayloadBytes));
      }
    }
    sim::Fabric reference{topo_};
    for (const auto& g : groups_) {
      reference.install_group(sys_.controller, g.id);
    }
    return ok && stream::fabric_state_digest(sys_.fabric) ==
                     stream::fabric_state_digest(reference);
  }

  std::size_t attempted() const { return ops_; }
  std::size_t small_ops() const { return small_us_.size(); }
  std::size_t failed() const { return failed_; }
  bool warmup_ok() const { return warmup_failed_ == 0; }

  // --- MembershipDriver ---------------------------------------------------
  void join(GroupId group, const Member& member) override {
    const auto t0 = Clock::now();
    sys_.plane.join(group, member);
    plane_us_ += yard_.scaled_us(t0, Clock::now());
    last_ = &groups_[index_.at(group)];
    last_->add(member);
  }

  Member leave(GroupId group, topo::HostId host, std::uint32_t vm) override {
    const auto t0 = Clock::now();
    const auto removed = sys_.plane.leave(group, host, vm);
    plane_us_ += yard_.scaled_us(t0, Clock::now());
    last_ = &groups_[index_.at(group)];
    mirror_ok_ = last_->remove(host, vm) && mirror_ok_;
    return removed;
  }

 private:
  // A random member that may send, or none if the group has no sender.
  std::optional<topo::HostId> pick_sender(const GroupMirror& g) {
    for (int tries = 0; tries < 8; ++tries) {
      const auto& m = g.members[rng_.index(g.members.size())];
      if (can_send(m.role)) return m.host;
    }
    for (const auto& m : g.members) {
      if (can_send(m.role)) return m.host;
    }
    return std::nullopt;
  }

  // --- timed calls into the system (benchmark spans) ----------------------
  sim::SendResult walk(topo::HostId sender, const GroupMirror& g) {
    const auto t0 = Clock::now();
    auto result = sys_.fabric.send(sender, g.address, kPayloadBytes);
    walk_us_ += yard_.scaled_us(t0, Clock::now());
    return result;
  }

  void flush() {
    const auto t0 = Clock::now();
    sys_.plane.flush();
    plane_us_ += yard_.scaled_us(t0, Clock::now());
  }

  // One ChurnSimulator event; false if it changed nothing (a group at the
  // minimum size whose tenant has no VM left to join).
  bool churn_event() { return sys_.churn->step(kMinGroupSize, rng_); }

  void check(bool ok) {
    if (ok) return;
    if (measuring_) {
      ++failed_;
    } else {
      ++warmup_failed_;
    }
  }

  void record_latency(std::size_t group_size, double us) {
    (group_size <= kSmallGroupMax ? small_us_ : large_us_).push_back(us);
  }

  // --- one closed-loop operation; false if no op was made ------------------
  bool step() {
    switch (spec_.op) {
      case OpKind::kSend: return step_send();
      case OpKind::kJoinProbe: return step_join_probe();
    }
    return false;
  }

  // Every group gets the same number of sends, ±1, so a run's latency mix
  // does not depend on which groups the seed happens to favour.
  const GroupMirror& next_group() {
    if (next_in_order_ == order_.size()) {
      rng_.shuffle(std::span<std::size_t>{order_});
      next_in_order_ = 0;
    }
    return groups_[order_[next_in_order_++]];
  }

  bool step_send() {
    const auto& g = next_group();
    const auto sender = pick_sender(g);
    if (!sender) return false;
    const double before = walk_us_;
    const auto result = walk(*sender, g);
    record_latency(g.members.size(), walk_us_ - before);
    check(delivered_correctly(g, *sender, result));
    if (++sends_since_drift_ == kDriftEvery) {
      sends_since_drift_ = 0;
      if (churn_event()) flush();
    }
    return true;
  }

  bool step_join_probe() {
    const auto t0 = Clock::now();
    if (!churn_event()) return false;
    flush();
    const auto& g = *last_;
    const auto sender = pick_sender(g);
    if (!sender) return false;
    const auto result = walk(*sender, g);
    record_latency(g.members.size(), yard_.scaled_us(t0, Clock::now()));
    // A joiner's host must now get a copy, a leaver's VM none.
    check(delivered_correctly(g, *sender, result));
    return true;
  }

  void reset_measurement() {
    measuring_ = true;
    small_us_.clear();
    large_us_.clear();
    walk_us_ = plane_us_ = 0;
    stages_ = StageTimes{};
    if (args_.trace) tracer_.clear();
    sys_.fabric.clear_tte_records();
  }

  std::vector<Metric> latency_metrics(const std::string& prefix) {
    return {
        {prefix + "latency_p90_small_us", percentile(small_us_, 90), "us"},
        {prefix + "latency_p99_large_us", percentile(large_us_, 99), "us"},
    };
  }

  // Median join-to-first-delivery the fabric's watches measured, 0 if no
  // join was followed by a delivery to the joiner.
  double tte_join_p50_us() const {
    std::vector<double> us;
    for (const auto& rec : sys_.fabric.tte_records()) {
      if (!rec.leave) us.push_back(rec.tte_seconds * 1e6 * yard_.scale());
    }
    return us.empty() ? 0.0 : percentile(us, 50);
  }

  std::vector<Metric> layer_metrics(const Counters& a, const Counters& b) {
    const double ops = static_cast<double>(std::max<std::size_t>(ops_, 1));
    auto per_op = [&](double v) { return v / ops; };
    auto delta = [&](std::uint64_t x, std::uint64_t y) {
      return per_op(static_cast<double>(y - x));
    };
    const auto matches = [](const dp::SwitchStats& s) {
      return s.prule_matches + s.srule_matches + s.default_matches;
    };
    const double rule_matches = static_cast<double>(
        matches(b.leaf) + matches(b.spine) + matches(b.core) -
        matches(a.leaf) - matches(a.spine) - matches(a.core));
    const double srule_matches = static_cast<double>(
        b.leaf.srule_matches + b.spine.srule_matches + b.core.srule_matches -
        a.leaf.srule_matches - a.spine.srule_matches - a.core.srule_matches);
    const double pop_bytes = static_cast<double>(
        b.leaf.header_pop_bytes + b.spine.header_pop_bytes +
        b.core.header_pop_bytes - a.leaf.header_pop_bytes -
        a.spine.header_pop_bytes - a.core.header_pop_bytes);
    auto metrics = latency_metrics("traced_");
    metrics.insert(
        metrics.end(),
        {
            {"walk_us", per_op(walk_us_), "us"},
            {"plane_us", per_op(plane_us_), "us"},
            {"reencode_us", per_op(stages_.reencode_us), "us"},
            {"delta_diff_us", per_op(stages_.delta_diff_us), "us"},
            {"p4rt_encode_us", per_op(stages_.p4rt_encode_us), "us"},
            {"p4rt_decode_us", per_op(stages_.p4rt_decode_us), "us"},
            {"apply_us", per_op(stages_.apply_us), "us"},
            {"plane_self_us", per_op(plane_us_ - stages_.total()), "us"},
            {"tte_join_p50_us", tte_join_p50_us(), "us"},
            {"leaf_hops_per_op", delta(a.leaf.packets_in, b.leaf.packets_in),
             "count"},
            {"spine_hops_per_op",
             delta(a.spine.packets_in, b.spine.packets_in), "count"},
            {"core_hops_per_op", delta(a.core.packets_in, b.core.packets_in),
             "count"},
            {"host_copies_per_op", delta(a.hyp.received, b.hyp.received),
             "count"},
            {"vm_deliveries_per_op",
             delta(a.hyp.delivered_to_vms, b.hyp.delivered_to_vms), "count"},
            {"spurious_copies_per_op",
             delta(a.hyp.discarded, b.hyp.discarded), "count"},
            // Share of switch forwarding decisions that needed switch state
            // (s-rules) rather than the packet's own p-rules.
            {"srule_share",
             rule_matches > 0 ? srule_matches / rule_matches : 0.0, "ratio"},
            {"header_pop_bytes_per_op", per_op(pop_bytes), "B"},
            {"bytes_copied_per_op", delta(a.copies.bytes, b.copies.bytes),
             "B"},
            {"copies_per_op", delta(a.copies.copies, b.copies.copies),
             "count"},
            {"rule_updates_per_op",
             delta(a.plane.updates_applied, b.plane.updates_applied),
             "count"},
            {"wire_bytes_per_op",
             delta(a.plane.wire_bytes, b.plane.wire_bytes), "B"},
        });
    return metrics;
  }

  const WorkloadSpec& spec_;
  const Args& args_;
  const topo::ClosTopology& topo_;
  System& sys_;
  Yardstick& yard_;
  util::Rng rng_;
  std::vector<GroupMirror> groups_;
  std::unordered_map<GroupId, std::size_t> index_;  // GroupId -> groups_
  std::vector<std::size_t> order_;  // send_fanout's round-robin over groups_
  std::size_t next_in_order_ = 0;
  GroupMirror* last_ = nullptr;  // group of the latest churn event
  bool mirror_ok_ = true;        // every leave matched a mirrored member
  obs::Tracer tracer_;

  std::size_t sends_since_drift_ = 0;

  bool measuring_ = false;
  std::size_t ops_ = 0;
  std::size_t failed_ = 0;
  std::size_t warmup_failed_ = 0;
  std::vector<double> small_us_;  // op latencies, groups <= kSmallGroupMax
  std::vector<double> large_us_;  // ... and larger groups
  double walk_us_ = 0;   // benchmark spans around fabric sends
  double plane_us_ = 0;  // ... and around control-plane calls
  StageTimes stages_;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[192];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    throw std::invalid_argument{"unknown workload '" + args.workload + "'"};
  }

  const topo::ClosTopology topology{topo::ClosParams::facebook_fabric()};
  Yardstick yard;
  // kSetups identical set-ups; the run uses the last. Each is scaled by the
  // yardstick read just before and just after it.
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<System> sys;
  SetupTimes setup;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    inputs.reset();
    yard.calibrate();
    const double scale_before = yard.scale();
    util::Rng model_rng{kModelSeed};
    const auto t0 = Clock::now();
    inputs = std::make_unique<Inputs>(topology, kGroups, model_rng);
    setup.workload_s = micros(t0, Clock::now()) * 1e-6;
    sys = set_up(topology, *inputs, setup);
    yard.calibrate();
    const double scale = (scale_before + yard.scale()) / 2;
    for (double* s : {&setup.workload_s, &setup.fabric_s, &setup.encode_s,
                      &setup.install_s, &setup.track_s}) {
      *s *= scale;
    }
    setup_s.push_back(setup.total());
    std::fprintf(stderr,
                 "%s: set-up %.3f s (workload %.3f, fabric %.3f, encode %.3f, "
                 "install %.3f, track %.3f; scale %.3f)\n",
                 spec->name, setup.total(), setup.workload_s, setup.fabric_s,
                 setup.encode_s, setup.install_s, setup.track_s, scale);
  }

  Runner runner{*spec, args, topology, *sys, *inputs, yard};
  auto metrics = runner.run();
  if (args.trace) {
    metrics.push_back({"setup_workload_ms", setup.workload_s * 1e3, "ms"});
    metrics.push_back({"setup_fabric_ms", setup.fabric_s * 1e3, "ms"});
    metrics.push_back({"setup_encode_ms", setup.encode_s * 1e3, "ms"});
    metrics.push_back({"setup_install_ms", setup.install_s * 1e3, "ms"});
    metrics.push_back({"setup_track_ms", setup.track_s * 1e3, "ms"});
  } else {
    metrics.push_back({"setup_s", percentile(setup_s, 50), "s"});
  }
  const bool checks_ok = runner.final_check();
  const bool correct = checks_ok && runner.warmup_ok() && runner.failed() == 0;
  std::fprintf(stderr,
               "%s: %zu ops (%zu on groups of at most %zu members), %zu "
               "failed, final checks %s; yardstick pass median %.1f us "
               "(nominal %.0f, checksum %llx)\n",
               spec->name, runner.attempted(), runner.small_ops(),
               kSmallGroupMax, runner.failed(), checks_ok ? "passed" : "FAILED",
               yard.median_pass_us(), Yardstick::kNominalUs,
               static_cast<unsigned long long>(yard.checksum()));
  print_result(correct, runner.attempted(), runner.failed(), metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "elmo_perfbench: %s\n", e.what());
    return 2;
  }
}
