// Parameterized property suites: invariants that must hold across whole
// families of configurations, not just hand-picked examples.

#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "broadcast/broadcast_program.h"
#include "broadcast/page_ranking.h"
#include "broadcast/program_builder.h"
#include "cache/cache.h"
#include "cache/static_value_policy.h"
#include "core/system.h"
#include "sim/rng.h"
#include "sim/zipf.h"

namespace bdisk {
namespace {

// ----------------------------------------------------------------------
// Property: for any disk shape and chunking mode, every page appears
// exactly RelFreq(disk) times per major cycle.

using ShapeParam = std::tuple<std::vector<std::uint32_t>,   // sizes
                              std::vector<std::uint32_t>,   // rel freqs
                              broadcast::ChunkingMode>;

class ScheduleFrequencyProperty
    : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ScheduleFrequencyProperty, FrequenciesAreExact) {
  const auto& [sizes, freqs, mode] = GetParam();
  std::vector<std::vector<broadcast::PageId>> disks(sizes.size());
  broadcast::PageId next = 0;
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    for (std::uint32_t i = 0; i < sizes[d]; ++i) disks[d].push_back(next++);
  }
  const auto schedule = broadcast::BuildSchedule(disks, freqs, mode);

  std::map<broadcast::PageId, std::uint32_t> counts;
  for (const auto p : schedule) {
    if (p != broadcast::kNoPage) ++counts[p];
  }
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    for (const auto p : disks[d]) {
      EXPECT_EQ(counts[p], freqs[d]) << "page " << p << " disk " << d;
    }
  }
}

TEST_P(ScheduleFrequencyProperty, SpacingIsNearlyEven) {
  // Occurrences of each page should be spaced within one chunk length of
  // the ideal L/freq gap — the property that makes the analytic
  // L/(2*freq) expectation accurate.
  const auto& [sizes, freqs, mode] = GetParam();
  std::vector<std::vector<broadcast::PageId>> disks(sizes.size());
  broadcast::PageId next = 0;
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    for (std::uint32_t i = 0; i < sizes[d]; ++i) disks[d].push_back(next++);
  }
  const auto schedule = broadcast::BuildSchedule(disks, freqs, mode);
  std::uint32_t total = 0;
  for (const auto s : sizes) total += s;
  const broadcast::BroadcastProgram program(schedule, total);

  for (std::size_t d = 0; d < sizes.size(); ++d) {
    if (freqs[d] < 2) continue;
    for (const auto p : disks[d]) {
      std::vector<std::uint32_t> occ;
      for (std::uint32_t pos = 0; pos < program.Length(); ++pos) {
        if (program.PageAt(pos) == p) occ.push_back(pos);
      }
      const double ideal =
          static_cast<double>(program.Length()) / freqs[d];
      for (std::size_t i = 0; i < occ.size(); ++i) {
        const std::uint32_t nxt = occ[(i + 1) % occ.size()];
        const std::uint32_t gap =
            (nxt + program.Length() - occ[i]) % program.Length();
        EXPECT_LT(std::abs(static_cast<double>(gap) - ideal), ideal * 0.75)
            << "page " << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScheduleFrequencyProperty,
    ::testing::Combine(
        ::testing::Values(std::vector<std::uint32_t>{1, 2, 4},
                          std::vector<std::uint32_t>{10, 40, 50},
                          std::vector<std::uint32_t>{7, 13, 29},
                          std::vector<std::uint32_t>{5, 0, 12}),
        ::testing::Values(std::vector<std::uint32_t>{4, 2, 1},
                          std::vector<std::uint32_t>{3, 2, 1},
                          std::vector<std::uint32_t>{6, 3, 2},
                          std::vector<std::uint32_t>{1, 1, 1}),
        ::testing::Values(broadcast::ChunkingMode::kBalanced,
                          broadcast::ChunkingMode::kPad)));

// ----------------------------------------------------------------------
// Property: BuildPushLayout partitions the database for any offset/chop.

class LayoutPartitionProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,   // offset
                                                 std::uint32_t>>  // chop
{};

TEST_P(LayoutPartitionProperty, PartitionsTheDatabase) {
  const auto [offset, chop] = GetParam();
  const auto probs = sim::ZipfPmf(100, 0.95);
  const broadcast::DiskConfig config{{10, 40, 50}, {3, 2, 1}};
  const auto layout = broadcast::BuildPushLayout(probs, config, offset, chop);

  std::set<broadcast::PageId> seen;
  std::size_t total = 0;
  for (const auto& disk : layout.disk_pages) {
    total += disk.size();
    seen.insert(disk.begin(), disk.end());
  }
  EXPECT_EQ(layout.pull_only.size(), chop);
  total += layout.pull_only.size();
  seen.insert(layout.pull_only.begin(), layout.pull_only.end());
  EXPECT_EQ(total, 100U);
  EXPECT_EQ(seen.size(), 100U);

  // Disk sizes after truncation shrink from the slowest disk upward.
  std::uint32_t effective_total = 0;
  for (const auto s : layout.effective_config.sizes) effective_total += s;
  EXPECT_EQ(effective_total, 100U - chop);
}

TEST_P(LayoutPartitionProperty, PullOnlyPagesAreTheColdest) {
  const auto [offset, chop] = GetParam();
  if (chop == 0) GTEST_SKIP();
  const auto probs = sim::ZipfPmf(100, 0.95);
  const broadcast::DiskConfig config{{10, 40, 50}, {3, 2, 1}};
  const auto layout = broadcast::BuildPushLayout(probs, config, offset, chop);
  // Identity Zipf mapping: the chop coldest pages are ids >= 100 - chop.
  for (const auto p : layout.pull_only) {
    EXPECT_GE(p, 100U - chop);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndChops, LayoutPartitionProperty,
    ::testing::Combine(::testing::Values(0U, 1U, 10U, 25U),
                       ::testing::Values(0U, 5U, 50U, 70U)));

// ----------------------------------------------------------------------
// Property: cache invariants hold under random workloads for every policy.

class CachePolicyProperty
    : public ::testing::TestWithParam<cache::PolicyKind> {};

TEST_P(CachePolicyProperty, SizeNeverExceedsCapacityAndStaysConsistent) {
  const auto kind = GetParam();
  const std::uint32_t db_size = 50;
  const std::uint32_t capacity = 8;
  const auto probs = sim::ZipfPmf(db_size, 0.95);
  const broadcast::BroadcastProgram program(
      [&] {
        std::vector<broadcast::PageId> s;
        for (broadcast::PageId p = 0; p < db_size; ++p) s.push_back(p);
        return s;
      }(),
      db_size);

  cache::Cache cache(capacity, db_size,
                     cache::MakePolicy(kind, probs, &program));
  sim::Rng rng(99);
  std::set<broadcast::PageId> reference;  // Mirror of resident set.
  for (int i = 0; i < 5000; ++i) {
    const auto page =
        static_cast<broadcast::PageId>(rng.NextBounded(db_size));
    const bool hit = cache.Access(page);
    EXPECT_EQ(hit, reference.count(page) == 1);
    if (!hit) {
      const auto evicted = cache.Insert(page);
      if (evicted.has_value()) {
        EXPECT_EQ(reference.erase(*evicted), 1U);
        EXPECT_NE(*evicted, page);
      }
      reference.insert(page);
    }
    EXPECT_LE(cache.Size(), capacity);
    EXPECT_EQ(cache.Size(), reference.size());
  }
  EXPECT_TRUE(cache.IsFull());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CachePolicyProperty,
                         ::testing::Values(cache::PolicyKind::kPix,
                                           cache::PolicyKind::kP,
                                           cache::PolicyKind::kLru,
                                           cache::PolicyKind::kLfu),
                         [](const auto& param_info) {
                           const broadcast::BroadcastProgram program({0}, 1);
                           return cache::MakePolicy(param_info.param, {1.0},
                                                    &program)
                               ->Name();
                         });

// ----------------------------------------------------------------------
// Property: every delivery mode produces a sane steady-state run.

class DeliveryModeProperty
    : public ::testing::TestWithParam<core::DeliveryMode> {};

TEST_P(DeliveryModeProperty, SteadyStateRunIsSane) {
  core::SystemConfig config;
  config.mode = GetParam();
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 20.0;
  config.pull_bw = 0.5;
  config.seed = 21;

  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 100;
  protocol.min_measured_accesses = 1000;
  protocol.max_measured_accesses = 4000;
  protocol.batch_size = 500;
  protocol.tolerance = 0.1;

  core::System system(config);
  const core::RunResult result = system.RunSteadyState(protocol);
  EXPECT_GT(result.mean_response, 0.0);
  EXPECT_LT(result.mean_response, 1000.0);
  EXPECT_GE(result.response_stats.Min(), 0.0);
  EXPECT_GT(result.mc_hit_rate, 0.0);
  EXPECT_NEAR(result.push_slot_frac + result.pull_slot_frac +
                  result.idle_slot_frac,
              1.0, 1e-9);
  if (GetParam() == core::DeliveryMode::kPurePush) {
    EXPECT_EQ(result.pull_slot_frac, 0.0);
  }
  if (GetParam() == core::DeliveryMode::kPurePull) {
    EXPECT_EQ(result.push_slot_frac, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeliveryModeProperty,
                         ::testing::Values(core::DeliveryMode::kPurePush,
                                           core::DeliveryMode::kPurePull,
                                           core::DeliveryMode::kIpp),
                         [](const auto& param_info) {
                           return core::DeliveryModeName(param_info.param);
                         });

}  // namespace
}  // namespace bdisk
