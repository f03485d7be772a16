#include "broadcast/span_table.h"

#include <algorithm>

namespace bdisk::broadcast {

std::unique_ptr<const CycleSpanTable> CycleSpanTable::BuildIfFeasible(
    const BroadcastProgram& program, std::uint32_t threshold_slots,
    std::size_t max_bytes) {
  if (program.Empty()) return nullptr;
  const std::size_t columns = (program.Length() + 63) / 64;
  const std::size_t bytes = columns * program.DbSize() * sizeof(std::uint64_t);
  if (bytes > max_bytes) return nullptr;
  return std::unique_ptr<const CycleSpanTable>(
      new CycleSpanTable(program, threshold_slots));
}

CycleSpanTable::CycleSpanTable(const BroadcastProgram& program,
                               std::uint32_t threshold_slots)
    : length_(program.Length()),
      threshold_(threshold_slots),
      db_size_(program.DbSize()),
      bits_((length_ + 63) / 64 * db_size_, ~std::uint64_t{0}) {
  // All-ones = pull everywhere (the unscheduled-page answer); each
  // occurrence then clears its "near" span. distance(pos, p) <= T exactly
  // when pos lies in the cyclic span [occ - T, occ], so the span length is
  // T + 1, clamped to one full cycle.
  const std::uint32_t span =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(
          static_cast<std::uint64_t>(threshold_slots) + 1, length_));
  const std::uint32_t* offsets = program.OccOffsetsData();
  const std::uint32_t* positions = program.OccPositionsData();
  for (PageId page = 0; page < program.DbSize(); ++page) {
    for (std::uint32_t i = offsets[page]; i < offsets[page + 1]; ++i) {
      const std::uint32_t occ = positions[i];
      const std::uint32_t begin =
          occ + 1 >= span ? occ + 1 - span : length_ + occ + 1 - span;
      ClearCyclic(page, begin, span);
    }
  }
}

void CycleSpanTable::ClearCyclic(PageId page, std::uint32_t begin,
                                 std::uint32_t count) {
  const std::uint32_t tail = length_ - begin;
  if (count <= tail) {
    ClearLinear(page, begin, count);
  } else {
    ClearLinear(page, begin, tail);
    ClearLinear(page, 0, count - tail);
  }
}

void CycleSpanTable::ClearLinear(PageId page, std::uint32_t begin,
                                 std::uint32_t count) {
  if (count == 0) return;
  // Word w of the page's bits is bits_[w * db_size_ + page].
  std::uint64_t* const bits = bits_.data() + page;
  const std::uint32_t end = begin + count;  // Exclusive; <= length_.
  std::uint32_t word = begin >> 6;
  const std::uint32_t last_word = (end - 1) >> 6;
  const std::uint64_t first_mask = ~std::uint64_t{0} << (begin & 63);
  const std::uint64_t last_mask =
      ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
  if (word == last_word) {
    bits[word * db_size_] &= ~(first_mask & last_mask);
    return;
  }
  bits[word * db_size_] &= ~first_mask;
  for (++word; word < last_word; ++word) bits[word * db_size_] = 0;
  bits[last_word * db_size_] &= ~last_mask;
}

}  // namespace bdisk::broadcast
