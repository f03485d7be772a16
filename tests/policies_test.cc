#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "cache/lfu_policy.h"
#include "cache/lru_policy.h"
#include "cache/static_value_policy.h"

namespace bdisk::cache {
namespace {

// ---------------------------------------------------------------- PIX / P

TEST(StaticValuePolicyTest, EvictsMinimumValue) {
  StaticValuePolicy policy({0.5, 0.1, 0.9}, "PIX");
  policy.OnInsert(0);
  policy.OnInsert(1);
  policy.OnInsert(2);
  EXPECT_EQ(policy.ChooseVictim(), 1U);
  policy.OnEvict(1);
  EXPECT_EQ(policy.ChooseVictim(), 0U);
}

TEST(StaticValuePolicyTest, AccessDoesNotChangeVictim) {
  StaticValuePolicy policy({0.5, 0.1, 0.9}, "PIX");
  policy.OnInsert(0);
  policy.OnInsert(1);
  for (int i = 0; i < 10; ++i) policy.OnAccess(1);
  EXPECT_EQ(policy.ChooseVictim(), 1U);  // Value-based, not recency-based.
}

TEST(StaticValuePolicyTest, TieBreaksByLowerPageId) {
  StaticValuePolicy policy({0.3, 0.3, 0.3}, "PIX");
  policy.OnInsert(2);
  policy.OnInsert(0);
  policy.OnInsert(1);
  EXPECT_EQ(policy.ChooseVictim(), 0U);
}

// The paper's §2.1 example: pa=0.3, xa=4; pb=0.1, xb=1. Under PIX page a
// (value 0.075) is always evicted before page b (value 0.1) even though
// its access probability is higher.
TEST(StaticValuePolicyTest, PaperPixExample) {
  StaticValuePolicy pix({0.3 / 4.0, 0.1 / 1.0}, "PIX");
  pix.OnInsert(0);  // a
  pix.OnInsert(1);  // b
  EXPECT_EQ(pix.ChooseVictim(), 0U);
}

TEST(StaticValuePolicyTest, NameIsReported) {
  StaticValuePolicy policy({1.0}, "P");
  EXPECT_EQ(policy.Name(), "P");
}

TEST(StaticValuePolicyDeathTest, VictimOfEmptySetAborts) {
  StaticValuePolicy policy({1.0}, "P");
  EXPECT_DEATH(policy.ChooseVictim(), "no resident");
}

// ---------------------------------------------------------------- LRU

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  LruPolicy lru;
  lru.OnInsert(1);
  lru.OnInsert(2);
  lru.OnInsert(3);
  EXPECT_EQ(lru.ChooseVictim(), 1U);
  lru.OnAccess(1);  // 2 becomes LRU.
  EXPECT_EQ(lru.ChooseVictim(), 2U);
}

TEST(LruPolicyTest, EvictRemovesFromOrder) {
  LruPolicy lru;
  lru.OnInsert(1);
  lru.OnInsert(2);
  lru.OnEvict(1);
  EXPECT_EQ(lru.ChooseVictim(), 2U);
}

TEST(LruPolicyTest, InsertIsMostRecent) {
  LruPolicy lru;
  lru.OnInsert(1);
  lru.OnInsert(2);
  lru.OnAccess(1);
  lru.OnInsert(3);  // Order (MRU->LRU): 3, 1, 2.
  EXPECT_EQ(lru.ChooseVictim(), 2U);
  lru.OnEvict(2);
  EXPECT_EQ(lru.ChooseVictim(), 1U);
}

// ---------------------------------------------------------------- LFU

TEST(LfuPolicyTest, EvictsLeastFrequentlyUsed) {
  LfuPolicy lfu;
  lfu.OnInsert(1);
  lfu.OnInsert(2);
  lfu.OnAccess(1);
  lfu.OnAccess(1);
  EXPECT_EQ(lfu.ChooseVictim(), 2U);
}

TEST(LfuPolicyTest, TieBreaksByOldestActivity) {
  LfuPolicy lfu;
  lfu.OnInsert(1);
  lfu.OnInsert(2);  // Same count; 1 was inserted first.
  EXPECT_EQ(lfu.ChooseVictim(), 1U);
}

TEST(LfuPolicyTest, CountsPersistAcrossResidencies) {
  LfuPolicy lfu;
  lfu.OnInsert(1);
  lfu.OnAccess(1);
  lfu.OnAccess(1);  // Count 3.
  lfu.OnEvict(1);
  lfu.OnInsert(2);  // Count 1.
  lfu.OnInsert(1);  // Re-entry: count 4.
  EXPECT_EQ(lfu.ChooseVictim(), 2U);
}

// ---------------------------------------------------------------- Factory

TEST(MakePolicyTest, BuildsEachKind) {
  const std::vector<double> probs = {0.5, 0.3, 0.2};
  const broadcast::BroadcastProgram program({0, 1, 0, 2}, 3);
  EXPECT_EQ(MakePolicy(PolicyKind::kPix, probs, &program)->Name(), "PIX");
  EXPECT_EQ(MakePolicy(PolicyKind::kP, probs, nullptr)->Name(), "P");
  EXPECT_EQ(MakePolicy(PolicyKind::kLru, probs, nullptr)->Name(), "LRU");
  EXPECT_EQ(MakePolicy(PolicyKind::kLfu, probs, nullptr)->Name(), "LFU");
}

TEST(MakePolicyTest, PixDividesByFrequency) {
  // Page 0: p=0.5, x=2 -> 0.25; page 1: p=0.3, x=1 -> 0.3;
  // page 2: p=0.2, x=1 -> 0.2. Victim order: 2, then 0, then 1.
  const std::vector<double> probs = {0.5, 0.3, 0.2};
  const broadcast::BroadcastProgram program({0, 1, 0, 2}, 3);
  auto policy = MakePolicy(PolicyKind::kPix, probs, &program);
  policy->OnInsert(0);
  policy->OnInsert(1);
  policy->OnInsert(2);
  EXPECT_EQ(policy->ChooseVictim(), 2U);
  policy->OnEvict(2);
  EXPECT_EQ(policy->ChooseVictim(), 0U);
}

TEST(MakePolicyDeathTest, PixRequiresProgram) {
  const std::vector<double> probs = {1.0};
  EXPECT_DEATH(MakePolicy(PolicyKind::kPix, probs, nullptr), "program");
}

// Each kind's policy names itself as the paper does.
TEST(PolicyKindNameTest, AllNames) {
  const std::vector<double> probs = {1.0};
  const broadcast::BroadcastProgram program({0}, 1);
  EXPECT_EQ(MakePolicy(PolicyKind::kPix, probs, &program)->Name(), "PIX");
  EXPECT_EQ(MakePolicy(PolicyKind::kP, probs, &program)->Name(), "P");
  EXPECT_EQ(MakePolicy(PolicyKind::kLru, probs, &program)->Name(), "LRU");
  EXPECT_EQ(MakePolicy(PolicyKind::kLfu, probs, &program)->Name(), "LFU");
}

}  // namespace
}  // namespace bdisk::cache
