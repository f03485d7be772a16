// CycleSpanTable must agree exactly with the threshold decision on
// DistanceToNext — it is the barrier-frozen fast form the batched arrival
// spine substitutes for the live occurrence search, so any disagreement is
// a trajectory divergence.

#include "broadcast/span_table.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/broadcast_program.h"
#include "oracles.h"
#include "sim/rng.h"

namespace bdisk::broadcast {
namespace {

// A small multi-frequency cycle with padding and an unscheduled page:
// pages 0..3 scheduled with different densities, page 4 never broadcast.
BroadcastProgram SmallProgram() {
  return BroadcastProgram({0, 1, 0, 2, 0, 1, kNoPage, 3}, 5);
}

TEST(CycleSpanTableTest, BitsMatchThresholdDecisionExhaustively) {
  const BroadcastProgram program = SmallProgram();
  for (std::uint32_t threshold : {0U, 1U, 2U, 5U, 7U, 8U, 100U}) {
    const auto table = CycleSpanTable::BuildIfFeasible(program, threshold);
    ASSERT_NE(table, nullptr) << "threshold " << threshold;
    EXPECT_EQ(table->ThresholdSlots(), threshold);
    for (std::uint32_t pos = 0; pos < program.Length(); ++pos) {
      for (PageId page = 0; page < program.DbSize(); ++page) {
        EXPECT_EQ(table->ShouldPull(page, pos),
                  DistanceToNext(program, pos, page) > threshold)
            << "threshold " << threshold << " pos " << pos << " page "
            << page;
      }
    }
  }
}

TEST(CycleSpanTableTest, RandomizedProgramsMatchThresholdDecision) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t db =
        1 + static_cast<std::uint32_t>(rng.NextBounded(30));
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.NextBounded(150));
    std::vector<PageId> schedule(len);
    for (std::uint32_t s = 0; s < len; ++s) {
      schedule[s] = rng.NextDouble() < 0.1
                        ? kNoPage
                        : static_cast<PageId>(rng.NextBounded(db));
    }
    const BroadcastProgram program(std::move(schedule), db);
    const std::uint32_t threshold =
        static_cast<std::uint32_t>(rng.NextBounded(len + 2));
    const auto table = CycleSpanTable::BuildIfFeasible(program, threshold);
    ASSERT_NE(table, nullptr);
    for (std::uint32_t pos = 0; pos < len; ++pos) {
      for (PageId page = 0; page < db; ++page) {
        ASSERT_EQ(table->ShouldPull(page, pos),
                  DistanceToNext(program, pos, page) > threshold)
            << "trial " << trial << " threshold " << threshold << " pos "
            << pos << " page " << page;
      }
    }
  }
}

TEST(CycleSpanTableTest, UnscheduledPagesAlwaysPull) {
  const BroadcastProgram program = SmallProgram();
  const auto table = CycleSpanTable::BuildIfFeasible(program, 3);
  ASSERT_NE(table, nullptr);
  for (std::uint32_t pos = 0; pos < program.Length(); ++pos) {
    EXPECT_TRUE(table->ShouldPull(4, pos)) << "pos " << pos;
  }
}

TEST(CycleSpanTableTest, EmptyProgramIsInfeasible) {
  const BroadcastProgram program({}, 8);
  EXPECT_EQ(CycleSpanTable::BuildIfFeasible(program, 3), nullptr);
}

TEST(CycleSpanTableTest, OversizedCycleIsInfeasible) {
  const BroadcastProgram program = SmallProgram();
  // 5 pages x 1 word per row = 40 bytes; a 16-byte cap must refuse.
  EXPECT_EQ(CycleSpanTable::BuildIfFeasible(program, 3, 16), nullptr);
  EXPECT_NE(CycleSpanTable::BuildIfFeasible(program, 3, 4096), nullptr);
}

TEST(CycleSpanTableTest, ThresholdCoveringWholeCyclePullsOnlyNever) {
  // threshold >= Length(): every scheduled page's distance is always
  // <= Length()-1 <= threshold, so only unscheduled pages pull.
  const BroadcastProgram program = SmallProgram();
  const auto table =
      CycleSpanTable::BuildIfFeasible(program, program.Length());
  ASSERT_NE(table, nullptr);
  for (std::uint32_t pos = 0; pos < program.Length(); ++pos) {
    for (PageId page = 0; page < 4; ++page) {
      EXPECT_FALSE(table->ShouldPull(page, pos))
          << "pos " << pos << " page " << page;
    }
    EXPECT_TRUE(table->ShouldPull(4, pos));
  }
}

}  // namespace
}  // namespace bdisk::broadcast
