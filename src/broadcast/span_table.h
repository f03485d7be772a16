#ifndef BDISK_BROADCAST_SPAN_TABLE_H_
#define BDISK_BROADCAST_SPAN_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "broadcast/broadcast_program.h"
#include "broadcast/page.h"

namespace bdisk::broadcast {

/// Precomputed threshold decisions over one whole major cycle: one bit per
/// (page, position) answering "are more than `threshold` slots left from
/// `pos` until `page` is next pushed?".
///
/// The threshold decision — "is the page's next push slot farther than T?"
/// — is what both the virtual client's filter (T = ThresPerc * cycle) and
/// the server's degraded-mode shedding (T = shed_distance) actually need;
/// the distance itself is ephemeral. A page is within T of a push exactly
/// on the cyclic position span [occ - T, occ] around each occurrence, so
/// the table is built once per (program, threshold) by clearing those
/// spans out of an all-ones bitset. Afterwards a query is a single bit
/// test — no occurrence search at all. The bitset is column-major: word
/// `pos / 64` of every page sits in one contiguous column, so the queries
/// of one drain (one frozen position, many pages) stay within one
/// db-size-word column rather than touching a cache line per page.
///
/// Lifecycle: the table is valid for exactly one (program, threshold)
/// pair. Programs are immutable per System, so "invalidation on program
/// rebuild" means the table dies with its owner; threshold changes
/// (SetFaultInjector re-resolving shed watermarks, a different ThresPerc)
/// rebuild via BuildIfFeasible. Unscheduled pages always read as pull
/// (distance = kNeverBroadcast > any threshold).
class CycleSpanTable {
 public:
  /// Default cap on table memory. Table 3 scale (1000 pages x 3000 slots)
  /// is ~370 KiB; the cap only bites on degenerate huge configurations,
  /// where callers fall back to the per-query search path.
  static constexpr std::size_t kDefaultMaxBytes = std::size_t{8} << 20;

  /// Builds the table, or returns null when the program is empty or the
  /// bitset would exceed `max_bytes` (callers keep their fallback path).
  static std::unique_ptr<const CycleSpanTable> BuildIfFeasible(
      const BroadcastProgram& program, std::uint32_t threshold_slots,
      std::size_t max_bytes = kDefaultMaxBytes);

  /// True iff more than threshold_slots slots are left from `pos` until
  /// `page` is next pushed (pull / beyond the shed horizon). `pos` must be < the program length.
  bool ShouldPull(PageId page, std::uint32_t pos) const {
    return (bits_[(pos >> 6) * db_size_ + page] >> (pos & 63)) & 1U;
  }

  /// The threshold this table was built for.
  std::uint32_t ThresholdSlots() const { return threshold_; }

 private:
  CycleSpanTable(const BroadcastProgram& program,
                 std::uint32_t threshold_slots);

  /// Clears `count` of page's bits starting at position `begin`,
  /// cyclically.
  void ClearCyclic(PageId page, std::uint32_t begin, std::uint32_t count);
  void ClearLinear(PageId page, std::uint32_t begin, std::uint32_t count);

  std::uint32_t length_;
  std::uint32_t threshold_;
  std::size_t db_size_;              // Words per column.
  std::vector<std::uint64_t> bits_;  // 1 = pull (distance > threshold).
};

}  // namespace bdisk::broadcast

#endif  // BDISK_BROADCAST_SPAN_TABLE_H_
