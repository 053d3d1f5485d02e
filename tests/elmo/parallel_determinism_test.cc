// The determinism contract (DESIGN.md §5): every parallel path — cloud
// placement, workload generation, bulk group encoding (one batch, or chunk
// after chunk on one SRuleSpace) — must produce output bit-identical to its
// serial execution at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "cloud/cloud.h"
#include "elmo/controller.h"
#include "elmo/srule_space.h"
#include "elmo/tree.h"
#include "elmo/tree_encoder.h"
#include "topology/clos.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace elmo {
namespace {

constexpr std::uint64_t kSeed = 20190814;  // SIGCOMM'19 presentation day

topo::ClosTopology small_fabric() {
  return topo::ClosTopology{topo::ClosParams::two_tier_leaf_spine()};
}

cloud::CloudParams cloud_params(std::size_t colocation) {
  cloud::CloudParams p;
  p.tenants = 60;
  p.min_vms_per_tenant = 5;
  p.max_vms_per_tenant = 80;
  p.mean_vms_per_tenant = 16.0;
  p.colocation = colocation;
  return p;
}

struct Built {
  std::vector<std::vector<topo::HostId>> tenant_hosts;
  std::vector<cloud::Group> groups;
};

Built build(const topo::ClosTopology& topology, std::size_t colocation,
            cloud::GroupSizeDist dist, util::ThreadPool* pool) {
  util::Rng rng{kSeed};
  const cloud::Cloud cloud{topology, cloud_params(colocation), rng, pool};
  cloud::WorkloadParams wp;
  wp.total_groups = 2000;
  wp.size_dist = dist;
  wp.min_group_size = 3;
  const cloud::GroupWorkload workload{cloud, wp, rng, pool};

  Built out;
  for (const auto& tenant : cloud.tenants()) {
    out.tenant_hosts.push_back(tenant.vm_hosts);
  }
  out.groups.assign(workload.groups().begin(), workload.groups().end());
  return out;
}

void expect_identical(const Built& a, const Built& b, const char* what) {
  ASSERT_EQ(a.tenant_hosts, b.tenant_hosts) << what << ": placement differs";
  ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    ASSERT_EQ(a.groups[g].tenant, b.groups[g].tenant) << what << " g" << g;
    ASSERT_EQ(a.groups[g].member_hosts, b.groups[g].member_hosts)
        << what << " g" << g;
    ASSERT_EQ(a.groups[g].member_vms, b.groups[g].member_vms)
        << what << " g" << g;
  }
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<std::size_t,
                                                 cloud::GroupSizeDist>> {};

TEST_P(ParallelDeterminism, CloudAndWorkloadMatchSerialAt4And8Threads) {
  const auto [colocation, dist] = GetParam();
  const auto topology = small_fabric();
  const auto serial = build(topology, colocation, dist, nullptr);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    util::ThreadPool pool{threads};
    const auto parallel = build(topology, colocation, dist, &pool);
    expect_identical(serial, parallel,
                     (std::to_string(threads) + " threads").c_str());
  }
}

std::vector<std::vector<Member>> member_lists(const Built& built) {
  std::vector<std::vector<Member>> lists(built.groups.size());
  for (std::size_t gi = 0; gi < built.groups.size(); ++gi) {
    const auto& g = built.groups[gi];
    auto rng = util::Rng::stream(kSeed + 1, gi);
    for (std::size_t i = 0; i < g.size(); ++i) {
      lists[gi].push_back(Member{g.member_hosts[i], g.member_vms[i],
                                 static_cast<MemberRole>(rng.index(3))});
    }
  }
  return lists;
}

void expect_bulk_load_identical(const topo::ClosTopology& topology,
                                const EncoderConfig& config,
                                const Built& built) {
  const auto lists = member_lists(built);
  std::vector<Controller::GroupSpec> specs(lists.size());
  for (std::size_t gi = 0; gi < lists.size(); ++gi) {
    specs[gi] = {built.groups[gi].tenant, lists[gi]};
  }

  Controller serial{topology, config};
  const auto serial_ids = serial.create_groups(specs);

  for (const std::size_t threads : {1u, 4u, 8u}) {
    util::ThreadPool pool{threads};
    Controller parallel{topology, config};
    Controller::BulkLoadStats stats;
    const auto ids = parallel.create_groups(specs, &pool, &stats);
    ASSERT_EQ(ids.size(), serial_ids.size());
    EXPECT_EQ(stats.groups, specs.size());
    EXPECT_EQ(stats.speculative_commits + stats.serial_reencodes,
              specs.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(parallel.group(ids[i]).encoding ==
                  serial.group(serial_ids[i]).encoding)
          << threads << " threads, group " << i;
    }
    const auto par_occ = parallel.srule_space().leaf_occupancies();
    const auto ser_occ = serial.srule_space().leaf_occupancies();
    ASSERT_TRUE(std::equal(par_occ.begin(), par_occ.end(), ser_occ.begin(),
                           ser_occ.end()))
        << threads << " threads: leaf occupancies differ";
  }
}

TEST_P(ParallelDeterminism, BulkEncodingMatchesSerialAt4And8Threads) {
  const auto [colocation, dist] = GetParam();
  const auto topology = small_fabric();
  const auto built = build(topology, colocation, dist, nullptr);
  expect_bulk_load_identical(topology, EncoderConfig{}, built);
}

TEST_P(ParallelDeterminism, BulkEncodingMatchesSerialUnderTightFmax) {
  // A small finite s-rule capacity forces speculative denials and
  // reservation conflicts, exercising the merge pass's serial re-encode
  // fallback — the hard half of the determinism argument.
  const auto [colocation, dist] = GetParam();
  const auto topology = small_fabric();
  const auto built = build(topology, colocation, dist, nullptr);
  EncoderConfig config;
  config.hmax_leaf_override = 2;  // tiny header: most groups want s-rules
  config.srule_capacity = 8;
  expect_bulk_load_identical(topology, config, built);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, ParallelDeterminism,
    ::testing::Combine(::testing::Values(1u, 12u),  // P = colocation
                       ::testing::Values(cloud::GroupSizeDist::kWve,
                                         cloud::GroupSizeDist::kUniform)),
    [](const auto& info) {
      return "P" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == cloud::GroupSizeDist::kWve
                  ? "_Wve"
                  : "_Uniform");
    });

TEST(ParallelDeterminismStats, TightFmaxActuallyExercisesTheFallback) {
  // Sanity-check the tight-Fmax parameterization: with 8-entry tables and
  // 8 threads at least one group must take the serial re-encode path,
  // otherwise the suite above is not testing the merge fallback at all.
  const auto topology = small_fabric();
  const auto built =
      build(topology, 1, cloud::GroupSizeDist::kWve, nullptr);
  const auto lists = member_lists(built);
  std::vector<Controller::GroupSpec> specs(lists.size());
  for (std::size_t gi = 0; gi < lists.size(); ++gi) {
    specs[gi] = {built.groups[gi].tenant, lists[gi]};
  }
  EncoderConfig config;
  config.hmax_leaf_override = 2;
  config.srule_capacity = 8;
  util::ThreadPool pool{8};
  Controller controller{topology, config};
  Controller::BulkLoadStats stats;
  controller.create_groups(specs, &pool, &stats);
  EXPECT_GT(stats.serial_reencodes, 0u);
  EXPECT_GT(stats.speculative_commits, 0u);
}

TEST(ParallelDeterminismChunks, ConsecutiveBatchesMatchSerialEncodeLoop) {
  // The figure harness calls encode_batch chunk after chunk on one
  // SRuleSpace, so each batch's speculation starts from the occupancy the
  // batches before it left. Under tight Fmax, with and without legacy
  // leaves, the encodings and occupancies must equal a serial encode loop.
  const auto topology = small_fabric();
  const auto built = build(topology, 1, cloud::GroupSizeDist::kWve, nullptr);
  std::vector<MulticastTree> trees;
  trees.reserve(built.groups.size());
  for (const auto& g : built.groups) {
    trees.emplace_back(topology, g.member_hosts);
  }
  EncoderConfig config;
  config.hmax_leaf_override = 2;
  config.srule_capacity = 8;
  const TreeEncoder encoder{topology, config};
  std::vector<bool> legacy_mask(topology.num_leaves(), false);
  for (std::size_t leaf = 0; leaf < legacy_mask.size(); leaf += 3) {
    legacy_mask[leaf] = true;
  }
  constexpr std::size_t kBatch = 500;  // four batches of the 2,000 groups

  const std::vector<bool>* const masks[] = {nullptr, &legacy_mask};
  for (const auto* legacy : masks) {
    const std::string mask = legacy != nullptr ? "legacy" : "no legacy";
    SRuleSpace serial_space{topology, config.srule_capacity};
    std::vector<GroupEncoding> serial;
    for (const auto& tree : trees) {
      serial.push_back(encoder.encode(tree, &serial_space, legacy));
    }

    for (const std::size_t threads : {1u, 2u, 4u}) {
      util::ThreadPool pool{threads};
      SRuleSpace space{topology, config.srule_capacity};
      BulkLoadStats stats;
      std::vector<GroupEncoding> batched;
      for (std::size_t first = 0; first < trees.size(); first += kBatch) {
        const auto count = std::min(kBatch, trees.size() - first);
        auto encodings = encoder.encode_batch(
            count,
            [&](std::size_t i) -> const MulticastTree& {
              return trees[first + i];
            },
            space, &pool, legacy, &stats);
        for (auto& e : encodings) batched.push_back(std::move(e));
      }
      const auto where = mask + ", " + std::to_string(threads) + " threads";
      ASSERT_EQ(batched.size(), serial.size()) << where;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(batched[i] == serial[i]) << where << ", group " << i;
      }
      const auto leaf = space.leaf_occupancies();
      const auto serial_leaf = serial_space.leaf_occupancies();
      EXPECT_TRUE(std::equal(leaf.begin(), leaf.end(), serial_leaf.begin(),
                             serial_leaf.end()))
          << where << ": leaf occupancies differ";
      const auto spine = space.spine_occupancies();
      const auto serial_spine = serial_space.spine_occupancies();
      EXPECT_TRUE(std::equal(spine.begin(), spine.end(),
                             serial_spine.begin(), serial_spine.end()))
          << where << ": spine occupancies differ";
      EXPECT_EQ(stats.groups, trees.size()) << where;
      EXPECT_EQ(stats.speculative_commits + stats.serial_reencodes,
                trees.size())
          << where;
      EXPECT_GT(stats.speculative_commits, 0u) << where;
      EXPECT_GT(stats.serial_reencodes, 0u) << where;
    }
  }
}

}  // namespace
}  // namespace elmo
