#include "sim/simulator.h"

#include <algorithm>

#include "sim/check.h"

namespace bdisk::sim {

EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  BDISK_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
  obs::PhaseScope prof(profiler_, obs::Phase::kQueueSchedule);
  return queue_.Schedule(when, fn);
}

EventId Simulator::ScheduleAfter(SimTime delay, EventFn fn) {
  BDISK_CHECK_MSG(delay >= 0.0, "negative delay");
  obs::PhaseScope prof(profiler_, obs::Phase::kQueueSchedule);
  return queue_.Schedule(now_ + delay, fn);
}

PeriodicId Simulator::SchedulePeriodic(SimTime interval,
                                       EventHandler* handler) {
  return queue_.SchedulePeriodic(now_ + interval, interval, handler);
}

void Simulator::RegisterLazySource(LazySource* source) {
  BDISK_CHECK_MSG(source != nullptr, "null lazy source");
  lazy_sources_.push_back(source);
}

void Simulator::UnregisterLazySource(LazySource* source) {
  lazy_sources_.erase(
      std::remove(lazy_sources_.begin(), lazy_sources_.end(), source),
      lazy_sources_.end());
}

void Simulator::CatchUpLazySources() {
  // Reentrancy: a drained arrival's side effects (e.g. a queue submit) may
  // reach another barrier. The outer drain already delivers arrivals in
  // timestamp order, so the nested call has nothing left to add.
  if (draining_ || lazy_sources_.empty()) return;
  draining_ = true;
  obs::PhaseScope prof(profiler_, obs::Phase::kDrain);
  std::uint64_t processed = 0;
  if (lazy_sources_.size() == 1) {
    processed = lazy_sources_.front()->CatchUp(now_);
  } else {
    // Multiple sources: drain the earliest one only up to the runner-up's
    // next arrival, repeatedly, so cross-source arrivals stay in global
    // timestamp order (ties resolved by registration order).
    for (;;) {
      LazySource* earliest = nullptr;
      SimTime first = kTimeNever;
      SimTime second = kTimeNever;
      for (LazySource* source : lazy_sources_) {
        const SimTime next = source->NextArrivalTime();
        if (next < first) {
          second = first;
          first = next;
          earliest = source;
        } else if (next < second) {
          second = next;
        }
      }
      if (earliest == nullptr || first > now_) break;
      processed += earliest->CatchUp(std::min(now_, second));
    }
  }
  lazy_arrivals_fused_ += processed;
  if (processed > 0) ++lazy_drains_;
  prof.AddOps(processed);
  draining_ = false;
}

void Simulator::Run() {
  obs::PhaseScope prof(profiler_, obs::Phase::kRun);
  stop_requested_ = false;
  while (!stop_requested_ && Step()) {
  }
  CatchUpLazySources();
}

void Simulator::RunUntil(SimTime deadline) {
  obs::PhaseScope prof(profiler_, obs::Phase::kRun);
  stop_requested_ = false;
  while (!stop_requested_) {
    // Batched periodic span: when a sole live periodic timer fires
    // strictly before every one-shot event, run its occurrences
    // back-to-back without touching the queue. Bit-identical to stepping —
    // each iteration performs exactly what Step() would (advance clock,
    // count, OnEvent, Rearm) — and bails out to the generic path the
    // moment a handler mutates the event set, the barrier is reached (ties
    // need Pop()'s seq tie-break), or the deadline arrives.
    PeriodicId pid;
    EventHandler* handler;
    SimTime barrier;
    if (queue_.PeriodicSpan(&pid, &handler, &barrier)) {
      obs::PhaseScope span_prof(profiler_, obs::Phase::kKernelSpan);
      const std::uint64_t epoch = queue_.MutationEpoch();
      SimTime next = queue_.PeriodicNextTime(pid);
      std::uint64_t fired = 0;
      while (next < barrier && next <= deadline) {
        now_ = next;
        ++events_executed_;
        handler->OnEvent();
        queue_.Rearm(pid);
        ++fired;
        if (stop_requested_ || queue_.MutationEpoch() != epoch) break;
        next = queue_.PeriodicNextTime(pid);  // kTimeNever if cancelled.
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
  if (fired.periodic != EventQueue::kNotPeriodic) queue_.Rearm(fired.periodic);
  return true;
}

}  // namespace bdisk::sim
