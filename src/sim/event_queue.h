#ifndef BDISK_SIM_EVENT_QUEUE_H_
#define BDISK_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/types.h"

namespace bdisk::sim {

/// The intrusive event-handler interface: components that receive timed
/// events implement OnEvent(). Storing a handler pointer costs one word and
/// never allocates, which is what keeps Schedule() allocation-free on the
/// simulation hot path.
///
/// The queue never owns handlers and never deletes through this base; a
/// handler must outlive every event that references it (cancel first, or
/// drain the queue). The destructor is virtual only so that concrete
/// subclasses compile cleanly under -Wnon-virtual-dtor; it does not imply
/// queue-side ownership.
class EventHandler {
 public:
  virtual ~EventHandler() = default;

  /// Fired when the scheduled event's time arrives.
  virtual void OnEvent() = 0;
};

/// The action attached to a scheduled event: either an EventHandler* or a
/// small inline callable. Replaces std::function<void()>, which heap-
/// allocates for any capturing lambda.
///
/// Inline callables are capped at two pointers of capture state and must be
/// trivially copyable/destructible (static_asserted), so an EventFn is a
/// flat, fixed-size value — copying one is a memcpy and destroying one is
/// free. Larger state belongs behind an EventHandler.
class EventFn {
 public:
  /// Capture budget for inline callables: two machine words.
  static constexpr std::size_t kInlineBytes = 2 * sizeof(void*);

  EventFn() = default;

  /// Wraps a handler; firing the event calls handler->OnEvent().
  EventFn(EventHandler* handler) : invoke_(&InvokeHandler) {  // NOLINT
    std::memcpy(storage_, &handler, sizeof(handler));
  }

  /// Wraps a small callable (captureless lambda, or captures totalling at
  /// most two pointers). Oversized or non-trivial callables fail to
  /// compile — route those through an EventHandler instead.
  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_v<F&> &&
                !std::is_convertible_v<F, EventHandler*> &&
                !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F fn) : invoke_(&InvokeInline<F>) {  // NOLINT
    static_assert(sizeof(F) <= kInlineBytes,
                  "EventFn captures are capped at two pointers; use an "
                  "EventHandler for larger state");
    static_assert(std::is_trivially_copyable_v<F>,
                  "EventFn callables must be trivially copyable");
    static_assert(std::is_trivially_destructible_v<F>,
                  "EventFn callables must be trivially destructible");
    static_assert(alignof(F) <= alignof(void*),
                  "EventFn callables must not be over-aligned");
    ::new (static_cast<void*>(storage_)) F(fn);
  }

  /// True when an action is attached.
  explicit operator bool() const { return invoke_ != nullptr; }

  /// Runs the action.
  void operator()() { invoke_(storage_); }

 private:
  using Thunk = void (*)(void*);

  static void InvokeHandler(void* storage) {
    EventHandler* handler;
    std::memcpy(&handler, storage, sizeof(handler));
    handler->OnEvent();
  }

  template <typename F>
  static void InvokeInline(void* storage) {
    (*std::launder(reinterpret_cast<F*>(storage)))();
  }

  Thunk invoke_ = nullptr;
  alignas(void*) unsigned char storage_[kInlineBytes] = {};
};

static_assert(sizeof(EventFn) <= 3 * sizeof(void*),
              "EventFn must stay a flat three-word value");
static_assert(std::is_trivially_copyable_v<EventFn>);

/// A time-ordered priority queue of events, allocation-free in steady
/// state.
///
/// Events scheduled for the same time fire in FIFO order of scheduling
/// (stable tie-breaking by a monotonic sequence number), which makes
/// simulations deterministic. Event ids are generation-tagged slots over a
/// free-list slab: Cancel()/IsPending() are a bounds check plus a
/// generation compare (no hashing), and cancellation stays lazy — stale
/// entries are skipped when the queue reaches them, so Cancel() is O(1).
///
/// The queue also holds at most one periodic timer, the slot clock
/// (SchedulePeriodic), outside the one-shot heap: its next fire time is
/// always known, so the dominant fixed-interval event class (the broadcast
/// slot loop) costs no push/pop per occurrence. After a periodic event pops
/// and its action runs, the caller re-arms it with Rearm(); the fresh
/// sequence number is drawn at re-arm time, which reproduces exactly the
/// FIFO position the event would have had if the handler had rescheduled
/// it by hand.
class EventQueue {
 public:
  /// A popped event: the fire time, the action to run, and whether it is
  /// the periodic timer, which the caller must Rearm() after the action
  /// returns.
  struct Fired {
    SimTime when = 0.0;
    EventFn fn;
    bool periodic = false;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to fire at absolute time `when`.
  /// Returns an id usable with Cancel(). `when` must be finite and
  /// nonnegative (simulated time starts at 0).
  EventId Schedule(SimTime when, EventFn fn);

  /// Registers the periodic timer: `handler->OnEvent()` fires at `first`,
  /// then every `interval` after each Rearm(). `interval` must be positive
  /// and finite. The handler is not owned and must outlive the queue. A
  /// queue holds one periodic timer; a second call fails a check.
  void SchedulePeriodic(SimTime first, SimTime interval,
                        EventHandler* handler);

  /// Cancels a previously scheduled event. Cancelling an id that already
  /// fired (or was already cancelled) is a harmless no-op.
  void Cancel(EventId id);

  /// True iff `id` is scheduled and not yet fired or cancelled.
  bool IsPending(EventId id) const {
    const std::uint32_t slot = SlotOf(id);
    return slot < slots_.size() && slots_[slot].generation == GenerationOf(id);
  }

  /// True when no live events (one-shot or periodic) remain.
  bool Empty() const { return live_events_ == 0 && !HasPeriodic(); }

  /// Number of live events, counting the periodic timer once.
  std::size_t Size() const { return live_events_ + (HasPeriodic() ? 1 : 0); }

  /// Time of the earliest live event, or kTimeNever when empty.
  SimTime NextTime();

  /// Kernel profiling: the most entries the one-shot heap has ever held,
  /// stale entries included — this bounds memory and per-operation cost,
  /// which is what matters.
  std::size_t HeapHighWater() const { return high_water_; }

  /// Kernel profiling: lifetime count of periodic-timer re-arms — the
  /// occurrences that rode the fast path instead of the one-shot heap.
  std::uint64_t PeriodicRearms() const { return periodic_rearms_; }

  /// Kernel profiling: lazily-cancelled entries physically discarded so
  /// far. Every cancelled event leaves one stale entry behind, counted
  /// exactly once when the heap pops it, so after a full drain this equals
  /// the number of effective Cancel() calls.
  std::uint64_t StaleDiscarded() const { return stale_discarded_; }

  /// Incremented whenever the set of live events changes shape: Schedule,
  /// effective Cancel, SchedulePeriodic. NOT bumped by Pop or Rearm.
  /// Batched execution (see PeriodicSpan) uses this to detect that a
  /// handler scheduled or cancelled something mid-span.
  std::uint64_t MutationEpoch() const { return mutation_epoch_; }

  /// Batched-execution support: returns true iff the periodic timer exists
  /// and its next occurrence fires strictly before every live one-shot
  /// event. Outputs its handler and the barrier — the time of the earliest
  /// live one-shot (kTimeNever if none). While MutationEpoch() is unchanged
  /// and PeriodicNextTime() stays strictly below the barrier, the caller
  /// may fire occurrences back-to-back (OnEvent + Rearm) without going
  /// through Pop(); the result is bit-identical to per-event stepping
  /// because within the span no other event can be due (ties at the
  /// barrier report false, so the seq tie-break always goes through
  /// Pop()).
  bool PeriodicSpan(EventHandler** handler, SimTime* barrier);

  /// Next fire time of the periodic timer; kTimeNever if there is none.
  SimTime PeriodicNextTime() const { return periodic_.next; }

  /// Removes and returns the earliest live event (FIFO among ties).
  /// Returns false when Empty(). If the popped event is the periodic
  /// timer, the caller must invoke Rearm() after running fired->fn — until
  /// then the timer is quiescent and will not fire again.
  bool Pop(Fired* fired);

  /// Re-arms the popped periodic timer: advances its fire time by one
  /// interval and assigns it the next FIFO sequence number.
  void Rearm();

 private:
  // One-shot events live in a slab indexed by the low id bits; the heap
  // holds only a 16-byte key per event, so sift operations never touch the
  // action payload.
  //
  // `live_seq` is the sequence number of the event currently occupying the
  // slot (0 when free: real sequence numbers start at 1). A stored entry is
  // stale exactly when its packed seq no longer matches, which replaces a
  // per-entry generation tag with a compare the pop path needs anyway.
  // live_seq leads the layout: it is the one field every stale test loads.
  struct Slot {
    std::uint64_t live_seq = 0;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilSlot;
    EventFn fn;
  };
  // The whole (when, seq, slot) record packs into one 128-bit integer key
  // that sorts exactly like the tuple: event times are nonnegative finite
  // doubles, whose IEEE-754 bit patterns order identically to the values,
  // so `when`'s bits go in the high 64 bits, the sequence number above the
  // slot index in the low 64. One integer compare per sift step keeps the
  // (serial, latency-bound) sift dependency chain as short as possible.
  // The slot bits can never decide an ordering — seqs are unique.
  struct HeapEntry {
    unsigned __int128 key;
  };
  // The periodic timer; handler is null (and next kTimeNever) until
  // SchedulePeriodic.
  struct Periodic {
    SimTime next = kTimeNever;
    SimTime interval = 0.0;
    std::uint64_t seq = 0;
    EventHandler* handler = nullptr;
  };

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  // 4-ary min-heap on (when, seq): half the levels of a binary heap and
  // four children per cache line of 16-byte entries, which makes the
  // pop-side sift-down measurably cheaper at simulation depths. Any
  // correct heap yields the same pop order — (when, seq) is a total
  // order — so arity is purely a performance choice.
  static constexpr std::size_t kHeapArity = 4;

  static bool Before(const HeapEntry& a, const HeapEntry& b);
  bool IsStale(const HeapEntry& entry) const;
  void HeapPush(const HeapEntry& entry);
  void HeapPopFront();

  static std::uint32_t SlotOf(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t GenerationOf(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static EventId MakeId(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  // Retires a slot: bumps the generation (invalidating outstanding ids and
  // stale stored entries) and returns it to the free list.
  void FreeSlot(std::uint32_t slot);

  // Discards heap entries whose slot generation moved on (cancelled)
  // sitting at the top of the heap.
  void SkipStale();

  // Earliest live one-shot entry (the stale-skipped heap root), or
  // nullptr.
  const HeapEntry* PeekOneShot();

  bool HasPeriodic() const { return periodic_.handler != nullptr; }

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  Periodic periodic_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_events_ = 0;    // Scheduled one-shots, not fired/cancelled.
  std::size_t high_water_ = 0;     // Deepest the one-shot store ever got.
  std::uint64_t periodic_rearms_ = 0;  // Fast-path re-arms (profiling).
  std::uint64_t stale_discarded_ = 0;  // Cancelled entries retired (once).
  std::uint64_t mutation_epoch_ = 0;   // See MutationEpoch().
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_EVENT_QUEUE_H_
