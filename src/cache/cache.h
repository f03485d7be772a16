#ifndef BDISK_CACHE_CACHE_H_
#define BDISK_CACHE_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "broadcast/broadcast_program.h"
#include "cache/replacement_policy.h"
#include "sim/byte_mask.h"
#include "sim/stats.h"

namespace bdisk::cache {

/// A client page cache of fixed capacity (CacheSize pages) with a pluggable
/// replacement policy.
///
/// Page payloads are not modeled (the study is read-only and measures only
/// latency); the cache tracks residency. Statistics (hits/misses/evictions)
/// are collected for reporting.
class Cache {
 public:
  /// `capacity` >= 1; `db_size` bounds valid page ids; `policy` must be
  /// non-null.
  Cache(std::uint32_t capacity, std::uint32_t db_size,
        std::unique_ptr<ReplacementPolicy> policy);

  /// Looks up `page`; updates policy state and hit/miss counters.
  bool Access(PageId page);

  /// True iff `page` is resident. Does not touch policy or counters.
  bool Contains(PageId page) const { return resident_[page]; }

  /// Makes `page` resident, evicting the policy's victim when full. No-op
  /// when already resident. Returns the evicted page, if any.
  std::optional<PageId> Insert(PageId page);

  /// Drops `page` from the cache (invalidation of volatile data, or a
  /// prefetch swap). Returns true if it was resident. Counted separately
  /// from policy evictions.
  bool Remove(PageId page);

  /// Resident mask indexed by page id (for prefetch scans and tests).
  /// Byte-backed (see sim/byte_mask.h); reads the same as vector<bool>.
  const sim::ByteMask& resident_mask() const { return resident_; }

  /// Number of resident pages.
  std::uint32_t Size() const { return size_; }

  /// Maximum number of resident pages.
  std::uint32_t Capacity() const { return capacity_; }

  /// True when the cache is at capacity — the paper's steady-state
  /// precondition ("once the cache has been full for some time").
  bool IsFull() const { return size_ == capacity_; }

  /// Lifetime counters.
  std::uint64_t Hits() const { return hits_; }
  std::uint64_t Misses() const { return misses_; }
  std::uint64_t Evictions() const { return evictions_; }
  std::uint64_t Removals() const { return removals_; }

  /// The active replacement policy.
  const ReplacementPolicy& policy() const { return *policy_; }

  /// Observability hook (not owned; null detaches): every policy eviction
  /// records the victim's policy value (ReplacementPolicy::ValueOf) into
  /// `stats` — the value the cache gave up. One pointer check per eviction
  /// when detached.
  void SetEvictionValueStats(sim::RunningStats* stats) {
    eviction_value_stats_ = stats;
  }

 private:
  std::uint32_t capacity_;
  std::uint32_t size_ = 0;
  sim::ByteMask resident_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t removals_ = 0;
  sim::RunningStats* eviction_value_stats_ = nullptr;
};

/// Identifier of a replacement policy, for configuration.
enum class PolicyKind {
  kPix,  // p/x — cost-based, needs the broadcast program.
  kP,    // p — probability-only (Pure-Pull).
  kLru,
  kLfu,
};

/// Builds a replacement policy. `probs` are the owning client's access
/// probabilities; `program` may be null for kP/kLru/kLfu but is required for
/// kPix.
std::unique_ptr<ReplacementPolicy> MakePolicy(
    PolicyKind kind, const std::vector<double>& probs,
    const broadcast::BroadcastProgram* program);

}  // namespace bdisk::cache

#endif  // BDISK_CACHE_CACHE_H_
