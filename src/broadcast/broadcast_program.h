#ifndef BDISK_BROADCAST_BROADCAST_PROGRAM_H_
#define BDISK_BROADCAST_BROADCAST_PROGRAM_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "broadcast/page.h"

namespace bdisk::broadcast {

/// One major cycle of a broadcast schedule, with a per-page occurrence index
/// for O(log k) "slots until page p next appears" queries.
///
/// Positions are slot indices in [0, Length()); the schedule repeats
/// cyclically. This is what both the server (to emit pages) and the clients
/// (threshold filter, PIX frequency term) consult. The paper assumes clients
/// know the push schedule.
class BroadcastProgram {
 public:
  /// Sentinel distance for pages that never appear on the schedule.
  static constexpr std::uint32_t kNeverBroadcast =
      std::numeric_limits<std::uint32_t>::max();

  /// Builds the index over one major cycle. `db_size` is ServerDBSize; every
  /// non-kNoPage entry must be < db_size. An empty schedule is valid (pure
  /// pull).
  BroadcastProgram(std::vector<PageId> schedule, std::uint32_t db_size);

  /// Number of slots in the major cycle (MajorCycleSize).
  std::uint32_t Length() const {
    return static_cast<std::uint32_t>(schedule_.size());
  }

  /// True when no pages are pushed at all (pure pull).
  bool Empty() const { return schedule_.empty(); }

  /// Database size this program was built over.
  std::uint32_t DbSize() const { return db_size_; }

  /// Page broadcast in slot `pos` (kNoPage for padding slots).
  PageId PageAt(std::uint32_t pos) const { return schedule_[pos]; }

  /// The whole major cycle as a flat array of Length() entries. Hot readers
  /// (the server's schedule cursor) iterate this directly instead of going
  /// through PageAt() call-by-call.
  const PageId* ScheduleData() const { return schedule_.data(); }

  /// The raw CSR occurrence index: page p's sorted slot positions are
  /// OccPositionsData()[OccOffsetsData()[p] .. OccOffsetsData()[p+1]).
  /// Hot readers (the schedule cursor's next-occurrence search,
  /// CycleSpanTable's construction) cache these two pointers once, with no
  /// per-query indirection through the program object.
  const std::uint32_t* OccOffsetsData() const { return occ_offsets_.data(); }
  const std::uint32_t* OccPositionsData() const {
    return occ_positions_.data();
  }

  /// True iff `page` appears somewhere on the schedule.
  bool Contains(PageId page) const { return Frequency(page) > 0; }

  /// Times `page` appears per major cycle (the PIX `x` term).
  std::uint32_t Frequency(PageId page) const;

  /// Mean wait, in slots, for `page` from a uniformly random position —
  /// length/(2*frequency) for scheduled pages assuming even spacing;
  /// kNeverBroadcast (as a double) for unscheduled ones. Diagnostic helper.
  double ExpectedWait(PageId page) const;

  /// Human-readable one-line rendering for small programs ("a b d a c e…",
  /// pages printed as numbers, '-' for padding).
  std::string ToString() const;

 private:
  std::vector<PageId> schedule_;
  std::uint32_t db_size_;
  // Occurrence index in CSR layout: the sorted slot positions of page p
  // are occ_positions_[occ_offsets_[p] .. occ_offsets_[p+1]). One flat
  // array instead of a vector-of-vectors keeps the per-query working set
  // to two contiguous loads — the next-occurrence search is the
  // virtual-client hot path, called once per simulated client arrival.
  std::vector<std::uint32_t> occ_offsets_;    // db_size_ + 1 entries.
  std::vector<std::uint32_t> occ_positions_;  // One entry per filled slot.
};

}  // namespace bdisk::broadcast

#endif  // BDISK_BROADCAST_BROADCAST_PROGRAM_H_
