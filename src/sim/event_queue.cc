#include "sim/event_queue.h"

#include <bit>
#include <cmath>

#include "sim/check.h"

namespace bdisk::sim {

namespace {

// Slot-index width inside the low 64 key bits: up to ~1M concurrently live
// events, leaving 44 bits of sequence number (~1.7e13 events per run).
constexpr unsigned kSlotBits = 20;
constexpr std::uint32_t kMaxSlots = (1u << kSlotBits) - 1;

// Builds the 128-bit ordering key for events, by (when, seq, slot).
// Nonnegative finite doubles order identically to their bit patterns, so
// an integer compare of keys is the full tie-broken event ordering.
inline unsigned __int128 MakeKey(SimTime when, std::uint64_t seq,
                                 std::uint32_t slot) {
  const auto when_bits = std::bit_cast<std::uint64_t>(when);
  const std::uint64_t low = (seq << kSlotBits) | slot;
  return (static_cast<unsigned __int128>(when_bits) << 64) | low;
}

inline SimTime WhenOf(unsigned __int128 key) {
  return std::bit_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
}

inline std::uint64_t SeqOf(unsigned __int128 key) {
  return static_cast<std::uint64_t>(key) >> kSlotBits;
}

inline std::uint32_t StoredSlotOf(unsigned __int128 key) {
  return static_cast<std::uint32_t>(key) & kMaxSlots;
}

}  // namespace

// A single integer compare keeps the hot (serial, latency-bound) sift
// comparisons branchless and short.
bool EventQueue::Before(const HeapEntry& a, const HeapEntry& b) {
  return a.key < b.key;  // Earlier (when, seq) fires first.
}

void EventQueue::HeapPush(const HeapEntry& entry) {
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  if (heap_.size() > high_water_) high_water_ = heap_.size();
  // Hole-based sift-up: parents slide down into the hole, the new entry is
  // written exactly once.
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!Before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::HeapPopFront() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up sift (Wegener): walk the hole down along min-children to a
  // leaf without comparing against `last`, then bubble `last` up. The
  // displaced element comes from the bottom of the heap, so the bubble-up
  // almost always stops immediately — this trades the per-level compare
  // against `last` for ~one compare total.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t fc = kHeapArity * hole + 1;
    std::size_t best;
    if (fc + kHeapArity <= n) {
      // Full group: a branch-free tournament. (when, packed) is a total
      // order — no ties — so any strict-min tournament picks the same
      // child, and conditional selects beat data-dependent branches on
      // effectively random event times.
      const std::size_t a = Before(heap_[fc + 1], heap_[fc]) ? fc + 1 : fc;
      const std::size_t b =
          Before(heap_[fc + 3], heap_[fc + 2]) ? fc + 3 : fc + 2;
      // One of these two is the next hole; fetch its children early.
      __builtin_prefetch(heap_.data() + kHeapArity * a + 1);
      __builtin_prefetch(heap_.data() + kHeapArity * b + 1);
      best = Before(heap_[b], heap_[a]) ? b : a;
    } else if (fc < n) {
      best = fc;
      for (std::size_t c = fc + 1; c < n; ++c) {
        if (Before(heap_[c], heap_[best])) best = c;
      }
    } else {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!Before(last, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = last;
}

EventId EventQueue::Schedule(SimTime when, EventFn fn) {
  BDISK_CHECK_MSG(std::isfinite(when) && when >= 0.0,
                  "event time must be finite and nonnegative");
  BDISK_CHECK_MSG(static_cast<bool>(fn), "event needs an action");
  std::uint32_t slot;
  if (free_head_ != kNilSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    BDISK_CHECK_MSG(slots_.size() < kMaxSlots, "event slab exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  BDISK_DCHECK(seq < (1ULL << (64 - kSlotBits)));
  Slot& s = slots_[slot];
  s.fn = fn;
  s.live_seq = seq;
  s.next_free = kNilSlot;
  HeapPush(HeapEntry{MakeKey(when, seq, slot)});
  ++live_events_;
  ++mutation_epoch_;
  return MakeId(slot, s.generation);
}

void EventQueue::SchedulePeriodic(SimTime first, SimTime interval,
                                  EventHandler* handler) {
  BDISK_CHECK_MSG(std::isfinite(first) && first >= 0.0,
                  "first fire time must be finite and nonnegative");
  BDISK_CHECK_MSG(std::isfinite(interval) && interval > 0.0,
                  "periodic interval must be positive and finite");
  BDISK_CHECK_MSG(handler != nullptr, "periodic timer needs a handler");
  BDISK_CHECK_MSG(!HasPeriodic(), "a queue holds one periodic timer");
  periodic_ = Periodic{first, interval, next_seq_++, handler};
  ++mutation_epoch_;
}

void EventQueue::Cancel(EventId id) {
  const std::uint32_t slot = SlotOf(id);
  // A generation mismatch means the id already fired or was already
  // cancelled; the stored entry (if any) is discarded lazily when the
  // queue reaches it.
  if (slot >= slots_.size() || slots_[slot].generation != GenerationOf(id)) {
    return;
  }
  FreeSlot(slot);
  --live_events_;
  ++mutation_epoch_;
}

void EventQueue::FreeSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Bumping the generation retires every outstanding id in O(1); zeroing
  // live_seq retires the stored entry. Skip generation 0 on wraparound so
  // ids never collide with kInvalidEventId. The stale fn payload is left
  // in place — EventFn is trivially destructible and the next occupant
  // overwrites it.
  if (++s.generation == 0) s.generation = 1;
  s.live_seq = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

bool EventQueue::IsStale(const HeapEntry& entry) const {
  return slots_[StoredSlotOf(entry.key)].live_seq != SeqOf(entry.key);
}

void EventQueue::SkipStale() {
  while (!heap_.empty() && IsStale(heap_.front())) {
    HeapPopFront();
    ++stale_discarded_;
  }
}

const EventQueue::HeapEntry* EventQueue::PeekOneShot() {
  SkipStale();
  return heap_.empty() ? nullptr : &heap_.front();
}

SimTime EventQueue::NextTime() {
  const HeapEntry* top = PeekOneShot();
  const SimTime next = top == nullptr ? kTimeNever : WhenOf(top->key);
  return periodic_.next < next ? periodic_.next : next;
}

bool EventQueue::PeriodicSpan(EventHandler** handler, SimTime* barrier) {
  if (!HasPeriodic()) return false;
  const HeapEntry* top = PeekOneShot();
  const SimTime limit = top == nullptr ? kTimeNever : WhenOf(top->key);
  // Strict: at when-ties the (when, seq) order must decide, which is
  // Pop()'s job.
  if (!(periodic_.next < limit)) return false;
  *handler = periodic_.handler;
  *barrier = limit;
  return true;
}

bool EventQueue::Pop(Fired* fired) {
  const HeapEntry* top = PeekOneShot();
  if (top == nullptr && !HasPeriodic()) return false;
  // FIFO among ties: the event with the smaller (when, seq) fires first,
  // whether it lives in the one-shot heap or is the periodic timer.
  // A periodic key with slot bits 0 compares against heap keys exactly as
  // (when, seq) would: seqs are unique, so the slot bits never decide.
  const bool periodic_wins =
      HasPeriodic() &&
      (top == nullptr ||
       MakeKey(periodic_.next, periodic_.seq, 0) < top->key);
  if (periodic_wins) {
    fired->when = periodic_.next;
    fired->fn = EventFn(periodic_.handler);
    fired->periodic = true;
    return true;
  }
  const std::uint32_t slot = StoredSlotOf(top->key);
  fired->when = WhenOf(top->key);
  fired->fn = slots_[slot].fn;
  fired->periodic = false;
  FreeSlot(slot);
  --live_events_;
  HeapPopFront();
  return true;
}

void EventQueue::Rearm() {
  BDISK_DCHECK(HasPeriodic());
  ++periodic_rearms_;
  periodic_.next += periodic_.interval;
  // Drawing the sequence number here — after the action ran — gives the
  // next occurrence exactly the FIFO position a hand-rescheduled event
  // would get.
  periodic_.seq = next_seq_++;
}

}  // namespace bdisk::sim
