#include "broadcast/broadcast_program.h"

#include <gtest/gtest.h>

#include "oracles.h"

namespace bdisk::broadcast {
namespace {

// The Figure 1 cycle: a b d a c e a b f a c g with a..g = 0..6.
BroadcastProgram Figure1Program() {
  return BroadcastProgram({0, 1, 3, 0, 2, 4, 0, 1, 5, 0, 2, 6}, 7);
}

TEST(BroadcastProgramTest, BasicShape) {
  const BroadcastProgram program = Figure1Program();
  EXPECT_EQ(program.Length(), 12U);
  EXPECT_EQ(program.DbSize(), 7U);
  EXPECT_FALSE(program.Empty());
  EXPECT_EQ(program.PageAt(0), 0U);
  EXPECT_EQ(program.PageAt(2), 3U);
}

TEST(BroadcastProgramTest, Frequencies) {
  const BroadcastProgram program = Figure1Program();
  EXPECT_EQ(program.Frequency(0), 4U);  // Page a.
  EXPECT_EQ(program.Frequency(1), 2U);  // Page b.
  EXPECT_EQ(program.Frequency(2), 2U);  // Page c.
  for (PageId p = 3; p <= 6; ++p) EXPECT_EQ(program.Frequency(p), 1U);
}

TEST(BroadcastProgramTest, ContainsAndNeverBroadcast) {
  const BroadcastProgram program({0, 1, 0}, 3);
  EXPECT_TRUE(program.Contains(0));
  EXPECT_TRUE(program.Contains(1));
  EXPECT_FALSE(program.Contains(2));
  EXPECT_EQ(DistanceToNext(program, 0, 2), BroadcastProgram::kNeverBroadcast);
}

TEST(BroadcastProgramTest, DistanceZeroAtOwnSlot) {
  const BroadcastProgram program = Figure1Program();
  EXPECT_EQ(DistanceToNext(program, 0, 0), 0U);
  EXPECT_EQ(DistanceToNext(program, 2, 3), 0U);
}

TEST(BroadcastProgramTest, DistanceForward) {
  const BroadcastProgram program = Figure1Program();
  // From slot 1 (page b): page e (4) is at slot 5 -> distance 4.
  EXPECT_EQ(DistanceToNext(program, 1, 4), 4U);
  // Page a (0) next at slot 3 from slot 1 -> 2.
  EXPECT_EQ(DistanceToNext(program, 1, 0), 2U);
}

TEST(BroadcastProgramTest, DistanceWrapsAround) {
  const BroadcastProgram program = Figure1Program();
  // From slot 11 (page g): page d (3) is at slot 2 -> 12 - 11 + 2 = 3.
  EXPECT_EQ(DistanceToNext(program, 11, 3), 3U);
  // From slot 3, page d already passed -> wraps: 12 - 3 + 2 = 11.
  EXPECT_EQ(DistanceToNext(program, 3, 3), 11U);
}

TEST(BroadcastProgramTest, DistanceNeverExceedsCycle) {
  const BroadcastProgram program = Figure1Program();
  for (std::uint32_t pos = 0; pos < program.Length(); ++pos) {
    for (PageId p = 0; p < 7; ++p) {
      EXPECT_LT(DistanceToNext(program, pos, p), program.Length());
    }
  }
}

TEST(BroadcastProgramTest, DistanceIsCorrectByBruteForce) {
  const BroadcastProgram program = Figure1Program();
  for (std::uint32_t pos = 0; pos < program.Length(); ++pos) {
    for (PageId p = 0; p < 7; ++p) {
      std::uint32_t brute = 0;
      while (program.PageAt((pos + brute) % program.Length()) != p) ++brute;
      EXPECT_EQ(DistanceToNext(program, pos, p), brute)
          << "pos=" << pos << " page=" << p;
    }
  }
}

TEST(BroadcastProgramTest, ExpectedWait) {
  const BroadcastProgram program = Figure1Program();
  EXPECT_DOUBLE_EQ(program.ExpectedWait(0), 12.0 / 8.0);   // freq 4.
  EXPECT_DOUBLE_EQ(program.ExpectedWait(3), 6.0);          // freq 1.
}

TEST(BroadcastProgramTest, EmptyProgram) {
  const BroadcastProgram program({}, 100);
  EXPECT_TRUE(program.Empty());
  EXPECT_EQ(program.Length(), 0U);
  EXPECT_EQ(program.Frequency(5), 0U);
  EXPECT_FALSE(program.Contains(5));
}

TEST(BroadcastProgramTest, PaddingSlotsIgnoredInIndex) {
  const BroadcastProgram program({0, kNoPage, 1, kNoPage}, 2);
  EXPECT_EQ(program.Length(), 4U);
  EXPECT_EQ(program.Frequency(0), 1U);
  EXPECT_EQ(program.Frequency(1), 1U);
  EXPECT_EQ(DistanceToNext(program, 1, 1), 1U);
}

TEST(BroadcastProgramTest, ToStringRendersPagesAndPadding) {
  const BroadcastProgram program({0, kNoPage, 2}, 3);
  EXPECT_EQ(program.ToString(), "0 - 2");
}

TEST(BroadcastProgramDeathTest, RejectsOutOfRangePage) {
  EXPECT_DEATH(BroadcastProgram({5}, 3), "out-of-range");
}

}  // namespace
}  // namespace bdisk::broadcast
