#ifndef BDISK_BROADCAST_DISTANCE_SNAPSHOT_H_
#define BDISK_BROADCAST_DISTANCE_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "broadcast/broadcast_program.h"
#include "broadcast/page.h"

namespace bdisk::broadcast {

/// Barrier-frozen page→distance resolution for batched arrival draining.
///
/// Within one lazy-source drain the schedule cursor position is constant
/// (the cursor only advances in the server's slot decision, which runs
/// after the drain barrier — see DESIGN.md, "The batched arrival spine"),
/// so every distance query in the batch resolves against the same
/// `pos`. Freeze(pos) pins that position once per barrier; Distance(page)
/// then runs the CSR lower_bound with the position hoisted out of the loop
/// and memoizes the result per page, so a batch that asks about the same
/// hot page twice pays one search, not two.
///
/// The memo is invalidated by epoch stamping: Freeze with a new position
/// bumps the epoch instead of clearing the table, so re-freezing is O(1).
/// Distances count the slots from `pos` (inclusive) until the page is next
/// pushed, kNeverBroadcast for unscheduled pages and an empty program.
class DistanceSnapshot {
 public:
  /// The program must outlive the snapshot. An empty program (pure pull)
  /// is valid: every page resolves to kNeverBroadcast.
  explicit DistanceSnapshot(const BroadcastProgram& program);

  /// Pins the cursor position for the queries that follow. Cheap when the
  /// position has not moved since the last Freeze (the memo survives).
  void Freeze(std::uint32_t pos) {
    if (pos == pos_) return;
    pos_ = pos;
    if (++epoch_ == 0) {  // Epoch wrap: invalidate the long way, once.
      std::fill(memo_epoch_.begin(), memo_epoch_.end(), 0U);
      epoch_ = 1;
    }
  }

  /// The frozen position.
  std::uint32_t Position() const { return pos_; }

  /// Slots from the frozen position until `page` is next pushed. Memoized
  /// per Freeze.
  std::uint32_t Distance(PageId page) {
    if (memo_epoch_[page] == epoch_) return memo_dist_[page];
    const std::uint32_t d = Resolve(page);
    memo_epoch_[page] = epoch_;
    memo_dist_[page] = d;
    return d;
  }

 private:
  std::uint32_t Resolve(PageId page) const;

  const std::uint32_t* occ_offsets_;
  const std::uint32_t* occ_positions_;
  std::uint32_t length_;
  std::uint32_t pos_ = 0;
  std::uint32_t epoch_ = 1;
  std::vector<std::uint32_t> memo_dist_;
  std::vector<std::uint32_t> memo_epoch_;  // Entry valid iff == epoch_.
};

}  // namespace bdisk::broadcast

#endif  // BDISK_BROADCAST_DISTANCE_SNAPSHOT_H_
