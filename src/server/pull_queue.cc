#include "server/pull_queue.h"

#include "sim/check.h"

namespace bdisk::server {

PullQueue::PullQueue(std::uint32_t capacity, std::uint32_t db_size)
    : capacity_(capacity),
      ring_(std::size_t{capacity} + 1),
      queued_(db_size, false) {
  BDISK_CHECK_MSG(capacity >= 1, "queue capacity must be positive");
}

PageId PullQueue::PopFront() {
  BDISK_CHECK_MSG(count_ > 0, "PopFront() on an empty queue");
  const PageId page = ring_[head_];
  head_ = (head_ + 1 == capacity_) ? 0 : head_ + 1;
  --count_;
  queued_[page] = false;
  return page;
}

double PullQueue::DropRate() const {
  if (submitted_ == 0) return 0.0;
  return static_cast<double>(dropped_ + shed_ + dropped_outage_) /
         static_cast<double>(submitted_);
}

}  // namespace bdisk::server
