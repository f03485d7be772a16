#include "sim/simulator.h"

#include "sim/check.h"

namespace bdisk::sim {

EventId Simulator::ScheduleAfter(SimTime delay, EventFn fn) {
  BDISK_CHECK_MSG(delay >= 0.0, "negative delay");
  obs::PhaseScope prof(profiler_, obs::Phase::kQueueSchedule);
  return queue_.Schedule(now_ + delay, fn);
}

void Simulator::SchedulePeriodic(SimTime interval, EventHandler* handler) {
  queue_.SchedulePeriodic(now_ + interval, interval, handler);
}

void Simulator::RegisterLazySource(LazySource* source) {
  BDISK_CHECK_MSG(source != nullptr, "null lazy source");
  BDISK_CHECK_MSG(lazy_source_ == nullptr,
                  "a simulator has one lazy source");
  lazy_source_ = source;
}

void Simulator::UnregisterLazySource(LazySource* source) {
  if (lazy_source_ == source) lazy_source_ = nullptr;
}

void Simulator::CatchUpLazySources() {
  // Reentrancy: a drained arrival's side effects (e.g. a queue submit) may
  // reach another barrier. The outer drain already delivers arrivals in
  // timestamp order, so the nested call has nothing left to add.
  if (draining_ || lazy_source_ == nullptr) return;
  draining_ = true;
  obs::PhaseScope prof(profiler_, obs::Phase::kDrain);
  const std::uint64_t processed = lazy_source_->CatchUp(now_);
  lazy_arrivals_fused_ += processed;
  if (processed > 0) ++lazy_drains_;
  prof.AddOps(processed);
  draining_ = false;
}

void Simulator::RunUntil(SimTime deadline) {
  obs::PhaseScope prof(profiler_, obs::Phase::kRun);
  stop_requested_ = false;
  while (!stop_requested_) {
    // Batched periodic span: when the slot clock fires strictly before
    // every one-shot event, run its occurrences back-to-back without
    // touching the queue. Bit-identical to stepping — each iteration
    // performs exactly what Step() would (advance clock, count, OnEvent,
    // Rearm) — and bails out to the generic path the moment a handler
    // mutates the event set, the barrier is reached (ties need Pop()'s seq
    // tie-break), or the deadline arrives.
    EventHandler* handler;
    SimTime barrier;
    if (queue_.PeriodicSpan(&handler, &barrier)) {
      obs::PhaseScope span_prof(profiler_, obs::Phase::kKernelSpan);
      const std::uint64_t epoch = queue_.MutationEpoch();
      SimTime next = queue_.PeriodicNextTime();
      std::uint64_t fired = 0;
      while (next < barrier && next <= deadline) {
        now_ = next;
        ++events_executed_;
        handler->OnEvent();
        queue_.Rearm();
        ++fired;
        if (stop_requested_ || queue_.MutationEpoch() != epoch) break;
        next = queue_.PeriodicNextTime();
      }
      if (fired > 0) {
        ++periodic_spans_;
        span_prof.AddOps(fired);
        continue;
      }
    }
    const SimTime next = queue_.NextTime();
    if (next == kTimeNever || next > deadline) break;
    Step();
  }
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
  // Final barrier: lifetime counters are read right after a run returns.
  // Arrivals up to the clock's resting point (the deadline, or the time of
  // the event that called Stop()) are part of the run.
  CatchUpLazySources();
}

bool Simulator::Step() {
  EventQueue::Fired fired;
  if (!queue_.Pop(&fired)) return false;
  obs::PhaseScope prof(profiler_, obs::Phase::kQueuePop);
  BDISK_DCHECK(fired.when >= now_);
  now_ = fired.when;
  ++events_executed_;
  fired.fn();
  // Re-arming after the action ran draws the next occurrence's FIFO
  // sequence number at the same point a hand-rescheduling handler would.
  if (fired.periodic) queue_.Rearm();
  return true;
}

}  // namespace bdisk::sim
