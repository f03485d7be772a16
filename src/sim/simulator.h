#ifndef BDISK_SIM_SIMULATOR_H_
#define BDISK_SIM_SIMULATOR_H_

#include <cstdint>

#include "obs/phase_profiler.h"
#include "sim/event_queue.h"
#include "sim/lazy_source.h"
#include "sim/types.h"

namespace bdisk::sim {

/// The discrete-event simulation engine.
///
/// A Simulator owns the logical clock and the event queue. Model components
/// schedule actions — an EventHandler or a small inline callable — a delay
/// after Now(); RunUntil() drains events in time order (FIFO among ties),
/// advancing the clock to each event's time. Scheduling never
/// heap-allocates: actions are flat two-word values and event bookkeeping
/// lives in reusable slabs (see EventQueue).
///
/// This is the substrate standing in for CSIM in the original study: the
/// paper's model needs only timed wakeups (broadcast slots, think-time
/// expirations), which an event-driven kernel reproduces exactly.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in broadcast units.
  SimTime Now() const { return now_; }

  /// Total number of events executed so far.
  std::uint64_t EventsExecuted() const { return events_executed_; }

  /// Kernel profiling: deepest the one-shot event store has ever been, and
  /// how many periodic-timer occurrences rode the pop-free fast path.
  /// Always tracked (the cost is one compare per push / one increment per
  /// re-arm).
  std::size_t HeapHighWater() const { return queue_.HeapHighWater(); }
  std::uint64_t PeriodicRearms() const { return queue_.PeriodicRearms(); }

  /// Kernel profiling: lazily-cancelled event entries physically retired
  /// (each exactly once — see EventQueue::StaleDiscarded), and how many
  /// batched periodic spans RunUntil() entered.
  std::uint64_t StaleDiscarded() const { return queue_.StaleDiscarded(); }
  std::uint64_t PeriodicSpans() const { return periodic_spans_; }

  /// Schedules `fn` after `delay` (must be >= 0) broadcast units.
  EventId ScheduleAfter(SimTime delay, EventFn fn);

  /// Registers the slot clock: a periodic timer firing `handler->OnEvent()`
  /// every `interval` units, first at Now() + interval. Its occurrences
  /// never round-trip through the event heap. The handler is not owned and
  /// must outlive the simulator. A simulator has one slot clock; a second
  /// call fails a check.
  void SchedulePeriodic(SimTime interval, EventHandler* handler);

  /// Registers the fused event source (not owned; unregister before it
  /// dies). Its arrivals are processed in batch by CatchUpLazySources()
  /// instead of riding the event heap. See sim/lazy_source.h for the
  /// eligibility contract. A simulator has one lazy source; registering a
  /// second fails a check.
  void RegisterLazySource(LazySource* source);

  /// Unregisters `source`; no-op if it is not the registered source.
  void UnregisterLazySource(LazySource* source);

  /// Drains the lazy source up to Now(). Model components call this at
  /// each barrier where the source's effects become observable. Reentrant
  /// calls (a drain whose side effects reach another barrier) are no-ops,
  /// which is safe: the outer drain is already processing arrivals in
  /// timestamp order.
  void CatchUpLazySources();

  /// Fused-source profiling: arrivals processed via CatchUpLazySources()
  /// (each would have been one heap event without fusion) and the number
  /// of drain calls that processed at least one arrival.
  std::uint64_t LazyArrivalsFused() const { return lazy_arrivals_fused_; }
  std::uint64_t LazyDrains() const { return lazy_drains_; }

  /// Attaches a wall-clock phase profiler (not owned; null detaches). The
  /// profiler header is dependency-free by design — only its inline hot
  /// path is used here, so bdisk_sim takes no obs link dependency — and
  /// attaching never changes the trajectory (null-checked scopes, no RNG,
  /// no events; same contract as the obs trace hooks).
  void SetPhaseProfiler(obs::PhaseProfiler* profiler) {
    profiler_ = profiler;
  }
  obs::PhaseProfiler* phase_profiler() const { return profiler_; }

  /// Cancels a pending event; no-op if it already fired.
  void Cancel(EventId id) { queue_.Cancel(id); }

  /// Runs until the clock would pass `deadline`, the queue empties, or
  /// Stop() is called. Events at exactly `deadline` are executed. While
  /// the slot clock fires strictly before every one-shot event, its
  /// occurrences run back-to-back in a batched span instead of one
  /// Pop() each; the span re-derives itself whenever a handler schedules
  /// or cancels anything, so the trajectory is exactly that of calling
  /// Step() event by event.
  void RunUntil(SimTime deadline);

  /// Executes at most one event; returns false if none was available. The
  /// reference semantics RunUntil()'s batched spans reproduce.
  bool Step();

  /// Requests that the current RunUntil() return after the in-flight
  /// event completes. Safe to call from inside event callbacks.
  void Stop() { stop_requested_ = true; }

  /// Number of events currently pending (the slot clock counts once).
  std::size_t PendingEvents() const { return queue_.Size(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t events_executed_ = 0;
  bool stop_requested_ = false;
  std::uint64_t periodic_spans_ = 0;  // Batched spans entered (profiling).

  LazySource* lazy_source_ = nullptr;
  bool draining_ = false;
  std::uint64_t lazy_arrivals_fused_ = 0;
  std::uint64_t lazy_drains_ = 0;

  obs::PhaseProfiler* profiler_ = nullptr;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_SIMULATOR_H_
