#include "cache/cache.h"

#include <utility>

#include "cache/lfu_policy.h"
#include "cache/lru_policy.h"
#include "cache/static_value_policy.h"
#include "cache/value_functions.h"
#include "sim/check.h"

namespace bdisk::cache {

Cache::Cache(std::uint32_t capacity, std::uint32_t db_size,
             std::unique_ptr<ReplacementPolicy> policy)
    : capacity_(capacity), resident_(db_size, false),
      policy_(std::move(policy)) {
  BDISK_CHECK_MSG(capacity >= 1, "cache capacity must be positive");
  BDISK_CHECK_MSG(policy_ != nullptr, "cache needs a replacement policy");
}

bool Cache::Access(PageId page) {
  BDISK_DCHECK(page < resident_.size());
  if (resident_[page]) {
    ++hits_;
    policy_->OnAccess(page);
    return true;
  }
  ++misses_;
  return false;
}

std::optional<PageId> Cache::Insert(PageId page) {
  BDISK_DCHECK(page < resident_.size());
  if (resident_[page]) return std::nullopt;
  std::optional<PageId> evicted;
  if (size_ == capacity_) {
    const PageId victim = policy_->ChooseVictim();
    BDISK_DCHECK(resident_[victim]);
    if (eviction_value_stats_ != nullptr) {
      eviction_value_stats_->Add(policy_->ValueOf(victim));
    }
    policy_->OnEvict(victim);
    resident_[victim] = false;
    --size_;
    ++evictions_;
    evicted = victim;
  }
  policy_->OnInsert(page);
  resident_[page] = true;
  ++size_;
  return evicted;
}

bool Cache::Remove(PageId page) {
  BDISK_DCHECK(page < resident_.size());
  if (!resident_[page]) return false;
  policy_->OnEvict(page);
  resident_[page] = false;
  --size_;
  ++removals_;
  return true;
}

std::unique_ptr<ReplacementPolicy> MakePolicy(
    PolicyKind kind, const std::vector<double>& probs,
    const broadcast::BroadcastProgram* program) {
  switch (kind) {
    case PolicyKind::kPix:
      BDISK_CHECK_MSG(program != nullptr, "PIX needs a broadcast program");
      return std::make_unique<StaticValuePolicy>(PixValues(probs, *program),
                                                 "PIX");
    case PolicyKind::kP:
      return std::make_unique<StaticValuePolicy>(PValues(probs), "P");
    case PolicyKind::kLru:
      return std::make_unique<LruPolicy>();
    case PolicyKind::kLfu:
      return std::make_unique<LfuPolicy>();
  }
  BDISK_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

}  // namespace bdisk::cache
