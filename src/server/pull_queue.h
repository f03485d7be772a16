#ifndef BDISK_SERVER_PULL_QUEUE_H_
#define BDISK_SERVER_PULL_QUEUE_H_

#include <cstdint>
#include <vector>

#include "broadcast/page.h"
#include "sim/byte_mask.h"
#include "sim/check.h"

namespace bdisk::server {

using broadcast::PageId;

/// Outcome of submitting a pull request to the server (§2.2).
enum class SubmitResult {
  /// Queued; the page will eventually be broadcast in a pull slot.
  kAccepted,
  /// A request for this page is already queued; the earlier entry will
  /// satisfy this client too, so the duplicate is ignored.
  kCoalesced,
  /// The queue was full; the request is thrown away. Clients receive no
  /// feedback and fall back on the push schedule (the "safety net") if the
  /// page is on it.
  kDroppedFull,
  /// Degraded-mode admission control shed the request before it reached
  /// the queue: the server is overloaded and the page has a near-enough
  /// push slot to serve as the safety net (bdisk::fault).
  kShedOverload,
  /// The server was inside an outage window and discarded the request
  /// (bdisk::fault).
  kDroppedOutage,
  /// The request was lost on the backchannel and never reached the server
  /// (bdisk::fault). Reported to instrumentation only; the queue never
  /// sees it.
  kLostChannel,
};

/// The server's bounded backchannel request queue.
///
/// Holds up to `capacity` (ServerQSize) *distinct* pages, serviced FIFO.
/// Matches the paper's server model: duplicate requests coalesce, arrivals
/// at a full queue are dropped, and the queue never reorders.
class PullQueue {
 public:
  /// `capacity` >= 1; `db_size` bounds valid page ids.
  PullQueue(std::uint32_t capacity, std::uint32_t db_size);

  /// Submits a request for `page`; returns what happened to it. Inline:
  /// the server's batched submit runs it once per virtual-client pull.
  SubmitResult Submit(PageId page) {
    BDISK_DCHECK(page < queued_.size());
    ++submitted_;
    if (queued_[page]) {
      ++coalesced_;
      return SubmitResult::kCoalesced;
    }
    if (count_ >= capacity_) {
      ++dropped_;
      return SubmitResult::kDroppedFull;
    }
    std::uint32_t tail = head_ + count_;
    if (tail >= capacity_) tail -= capacity_;
    ring_[tail] = page;
    ++count_;
    queued_[page] = true;
    ++accepted_;
    if (count_ > depth_high_water_) depth_high_water_ = count_;
    return SubmitResult::kAccepted;
  }

  /// Removes and returns the oldest queued page. Queue must be non-empty.
  PageId PopFront();

  /// True iff `page` is currently queued.
  bool IsQueued(PageId page) const { return queued_[page]; }

  bool Empty() const { return count_ == 0; }
  std::uint32_t Size() const { return count_; }
  std::uint32_t Capacity() const { return capacity_; }

  /// Records a request shed by degraded-mode admission control before it
  /// reached the queue. Counts toward SubmittedCount (the client did send
  /// it) but not DroppedCount, which stays capacity-only.
  void NoteShed() {
    ++submitted_;
    ++shed_;
  }

  /// Records a request discarded because the server was in an outage
  /// window. Same accounting discipline as NoteShed.
  void NoteOutageDrop() {
    ++submitted_;
    ++dropped_outage_;
  }

  /// Lifetime counters. DroppedCount is capacity overflow only; shed and
  /// outage losses are tallied separately so overload policy and infra
  /// failure never masquerade as queue-sizing problems.
  std::uint64_t SubmittedCount() const { return submitted_; }
  std::uint64_t AcceptedCount() const { return accepted_; }
  std::uint64_t CoalescedCount() const { return coalesced_; }
  std::uint64_t DroppedCount() const { return dropped_; }
  std::uint64_t ShedCount() const { return shed_; }
  std::uint64_t OutageDropCount() const { return dropped_outage_; }

  /// Deepest the queue has ever been (distinct queued pages) — how close
  /// the backchannel came to saturating even when nothing was dropped.
  std::uint32_t DepthHighWater() const { return depth_high_water_; }

  /// Fraction of submitted requests thrown away for any reason — capacity
  /// overflow, degraded-mode shedding, or outage windows. (Coalesced
  /// requests are *served* by the earlier entry, so they do not count as
  /// drops.) Identical to capacity-only dropped/submitted when no faults
  /// are configured. Returns 0 when nothing was submitted.
  double DropRate() const;

 private:
  std::uint32_t capacity_;
  // Fixed-size ring over a flat array: the capacity is bounded
  // (ServerQSize), so a preallocated ring replaces std::deque's chunked
  // indirection with one contiguous, cache-resident block.
  std::vector<PageId> ring_;  // capacity_ entries.
  std::uint32_t head_ = 0;    // Index of the oldest queued page.
  std::uint32_t count_ = 0;   // Queued pages.
  sim::ByteMask queued_;  // Byte-backed: one load per coalescing check.
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t dropped_outage_ = 0;
  std::uint32_t depth_high_water_ = 0;
};

}  // namespace bdisk::server

#endif  // BDISK_SERVER_PULL_QUEUE_H_
