#include "broadcast/broadcast_program.h"

#include <utility>

#include "sim/check.h"

namespace bdisk::broadcast {

BroadcastProgram::BroadcastProgram(std::vector<PageId> schedule,
                                   std::uint32_t db_size)
    : schedule_(std::move(schedule)), db_size_(db_size) {
  // Counting sort into CSR: per-page counts, exclusive prefix sum, then a
  // fill pass. Iterating positions in ascending order keeps each page's
  // occurrence run sorted.
  occ_offsets_.assign(db_size_ + 1, 0);
  for (const PageId p : schedule_) {
    if (p == kNoPage) continue;
    BDISK_CHECK_MSG(p < db_size_, "schedule references an out-of-range page");
    ++occ_offsets_[p + 1];
  }
  for (std::uint32_t p = 0; p < db_size_; ++p) {
    occ_offsets_[p + 1] += occ_offsets_[p];
  }
  occ_positions_.resize(occ_offsets_[db_size_]);
  std::vector<std::uint32_t> cursor(occ_offsets_.begin(),
                                    occ_offsets_.end() - 1);
  for (std::uint32_t pos = 0; pos < schedule_.size(); ++pos) {
    const PageId p = schedule_[pos];
    if (p == kNoPage) continue;
    occ_positions_[cursor[p]++] = pos;
  }
}

std::uint32_t BroadcastProgram::Frequency(PageId page) const {
  BDISK_DCHECK(page < db_size_);
  return occ_offsets_[page + 1] - occ_offsets_[page];
}

double BroadcastProgram::ExpectedWait(PageId page) const {
  const std::uint32_t freq = Frequency(page);
  if (freq == 0) return static_cast<double>(kNeverBroadcast);
  return static_cast<double>(Length()) / (2.0 * static_cast<double>(freq));
}

std::string BroadcastProgram::ToString() const {
  std::string out;
  for (std::uint32_t pos = 0; pos < schedule_.size(); ++pos) {
    if (pos > 0) out += ' ';
    if (schedule_[pos] == kNoPage) {
      out += '-';
    } else {
      out += std::to_string(schedule_[pos]);
    }
  }
  return out;
}

}  // namespace bdisk::broadcast
