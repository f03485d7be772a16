#include "server/broadcast_server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/check.h"

namespace bdisk::server {

namespace {

// The trace's record kinds are the one vocabulary of the server's
// observers: the trace sink and the windowed collector both take them.
// A lookup, not a branch: the batched submit maps every outcome.
obs::SpanEvent SubmitEvent(SubmitResult result) {
  static constexpr obs::SpanEvent kEvents[] = {
      obs::SpanEvent::kSubmitAccepted, obs::SpanEvent::kSubmitCoalesced,
      obs::SpanEvent::kSubmitDropped,  obs::SpanEvent::kSubmitShed,
      obs::SpanEvent::kSubmitOutage,   obs::SpanEvent::kSubmitLost,
  };
  static_assert(static_cast<int>(SubmitResult::kLostChannel) == 5);
  return kEvents[static_cast<int>(result)];
}

obs::SpanEvent SlotEvent(SlotKind kind) {
  switch (kind) {
    case SlotKind::kPush:
      return obs::SpanEvent::kSlotPush;
    case SlotKind::kPull:
      return obs::SpanEvent::kSlotPull;
    case SlotKind::kIdle:
      break;
  }
  return obs::SpanEvent::kSlotIdle;
}

}  // namespace

BroadcastServer::BroadcastServer(
    sim::Simulator* simulator,
    std::shared_ptr<const broadcast::BroadcastProgram> program, double pull_bw,
    std::uint32_t queue_capacity, sim::Rng rng)
    : simulator_(simulator),
      program_(std::move(program)),
      pull_bw_(pull_bw),
      queue_(queue_capacity, program_->DbSize()),
      rng_(rng) {
  BDISK_CHECK_MSG(simulator != nullptr, "server needs a simulator");
  BDISK_CHECK_MSG(program_ != nullptr, "server needs a program");
  BDISK_CHECK_MSG(pull_bw >= 0.0 && pull_bw <= 1.0,
                  "PullBW must be a fraction in [0,1]");
  BDISK_CHECK_MSG(!program_->Empty() || pull_bw > 0.0,
                  "a server with no program and no pull bandwidth would "
                  "never broadcast anything");
  if (!program_->Empty()) cursor_.emplace(program_.get());
  ChooseNextSlot();
  // One page per broadcast unit, forever: the next boundary is always
  // known, so the slot loop rides the periodic fast path instead of
  // re-entering the event heap every slot.
  simulator_->SchedulePeriodic(1.0, this);
}

void BroadcastServer::AddListener(BroadcastListener* listener) {
  BDISK_CHECK_MSG(listener != nullptr, "null listener");
  listeners_.push_back(listener);
}

void BroadcastServer::SetPullBw(double pull_bw) {
  BDISK_CHECK_MSG(pull_bw >= 0.0 && pull_bw <= 1.0,
                  "PullBW must be a fraction in [0,1]");
  BDISK_CHECK_MSG(!program_->Empty() || pull_bw > 0.0,
                  "a server with no program needs pull bandwidth");
  pull_bw_ = pull_bw;
}

void BroadcastServer::SetFaultInjector(fault::FaultInjector* injector) {
  injector_ = injector;
  shed_enter_depth_ = 0;
  shed_exit_depth_ = 0;
  shed_distance_ = 0;
  shed_table_.reset();
  degraded_pull_bw_mult_ = 1.0;
  degraded_ = false;
  if (injector == nullptr) return;
  const fault::FaultPlan& plan = injector->plan();
  if (plan.DegradedModeEnabled()) {
    const double capacity = static_cast<double>(queue_.Capacity());
    shed_enter_depth_ = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::ceil(plan.shed_hi * capacity)));
    const double lo = plan.shed_lo > 0.0 ? plan.shed_lo : plan.shed_hi / 2.0;
    shed_exit_depth_ = std::min<std::uint32_t>(
        shed_enter_depth_ - 1,
        static_cast<std::uint32_t>(std::floor(lo * capacity)));
    // 0 = shed every scheduled page: the whole major cycle is "near".
    shed_distance_ = plan.shed_distance > 0
                         ? plan.shed_distance
                         : program_->Length();
    // Threshold-change invalidation point: the shed horizon is fixed here,
    // so the per-cycle decision table is rebuilt here too (the program
    // itself is immutable for the server's lifetime).
    shed_table_ =
        broadcast::CycleSpanTable::BuildIfFeasible(*program_, shed_distance_);
    degraded_pull_bw_mult_ = plan.degraded_pull_bw;
  }
}

void BroadcastServer::EnableMetrics(obs::MetricsRegistry* registry) {
  BDISK_CHECK_MSG(registry != nullptr, "EnableMetrics needs a registry");
  ts_push_frac_ = registry->GetTimeSeries("server.push_frac");
  ts_pull_frac_ = registry->GetTimeSeries("server.pull_frac");
  ts_idle_frac_ = registry->GetTimeSeries("server.idle_frac");
  ts_queue_depth_ = registry->GetTimeSeries("server.queue_depth");
  window_slots_ = window_push_ = window_pull_ = window_idle_ = 0;
}

SubmitResult BroadcastServer::SubmitRequest(PageId page,
                                            std::uint32_t client) {
  // Barrier: queue order, coalescing, and drops depend on what is already
  // queued, so every fused arrival up to now must submit ahead of this one.
  simulator_->CatchUpLazySources();
  return SubmitRequestAt(page, client, simulator_->Now());
}

SubmitResult BroadcastServer::SubmitRequestAt(PageId page,
                                              std::uint32_t client,
                                              sim::SimTime at) {
  BDISK_DCHECK(page < program_->DbSize());
  if (injector_ != nullptr) {
    // Backchannel transit faults first: a request lost on the wire never
    // reaches the server, and a delayed one arrives later (the queue
    // outcome is decided — and traced — at arrival time).
    bool lost;
    double delay;
    {
      obs::PhaseScope judge_prof(profiler_, obs::Phase::kFaultJudge);
      lost = injector_->JudgeRequestLost();
      delay = lost ? 0.0 : injector_->JudgeRequestDelay();
    }
    if (lost) {
      RecordSubmit(SubmitResult::kLostChannel, page, client, at);
      return SubmitResult::kLostChannel;
    }
    if (delay > 0.0) {
      BroadcastServer* self = this;
      simulator_->ScheduleAfter(delay, [self, page, client] {
        self->SubmitArrived(page, client, self->simulator_->Now());
      });
      // In flight; instrumentation-only callers treat this as accepted.
      return SubmitResult::kAccepted;
    }
  }
  return SubmitArrived(page, client, at);
}

void BroadcastServer::SubmitRequestsAt(const PageId* pages,
                                       const sim::SimTime* at, std::size_t n,
                                       std::uint32_t client) {
  if (injector_ != nullptr) {
    for (std::size_t i = 0; i < n; ++i) SubmitRequestAt(pages[i], client, at[i]);
    return;
  }
  // No injector: no transit faults, no outages and no degraded mode
  // (shed_enter_depth_ is 0), so each request is the queue submit and its
  // record.
  obs::PhaseScope prof(profiler_, obs::Phase::kServerQueue);
  prof.AddOps(n);
  for (std::size_t i = 0; i < n; ++i) {
    RecordSubmit(queue_.Submit(pages[i]), pages[i], client, at[i]);
  }
}

SubmitResult BroadcastServer::SubmitArrived(PageId page, std::uint32_t client,
                                            sim::SimTime at) {
  obs::PhaseScope prof(profiler_, obs::Phase::kServerQueue);
  prof.AddOps(1);
  if (injector_ != nullptr) {
    // Outage windows discard arrivals outright (blackout and brownout
    // alike: the request processor is what is down). Judged at the
    // request's own time: a fused arrival is submitted at a later drain
    // barrier, and the barrier's clock may already sit in (or past) a
    // window the arrival preceded.
    if (injector_->InOutage(at)) {
      queue_.NoteOutageDrop();
      RecordSubmit(SubmitResult::kDroppedOutage, page, client, at);
      return SubmitResult::kDroppedOutage;
    }
    // Degraded-mode admission control: shed requests whose page has a
    // near-enough push slot (the schedule is their safety net); requests
    // for unscheduled pages are never shed — pull is their only path.
    if (degraded_) {
      // "Near a push slot" via the precomputed span table when available
      // (one bit test), else the cursor's occurrence search. Identical
      // decisions: the table bit is `distance > shed_distance_`.
      const bool near_push =
          shed_table_ != nullptr
              ? !shed_table_->ShouldPull(page, cursor_->Position())
              : DistanceToNextPush(page) <= shed_distance_;
      if (near_push) {
        queue_.NoteShed();
        RecordSubmit(SubmitResult::kShedOverload, page, client, at);
        return SubmitResult::kShedOverload;
      }
    }
  }
  const SubmitResult result = queue_.Submit(page);
  RecordSubmit(result, page, client, at);
  if (shed_enter_depth_ > 0) UpdateDegraded(at);
  return result;
}

void BroadcastServer::RecordSubmit(SubmitResult result, PageId page,
                                   std::uint32_t client, sim::SimTime at) {
  if (sink_ == nullptr && collector_ == nullptr) return;
  const obs::SpanEvent ev = SubmitEvent(result);
  const std::uint32_t depth = queue_.Size();
  if (sink_ != nullptr) {
    sink_->Record(at, ev, client, page, static_cast<double>(depth));
  }
  if (collector_ != nullptr) collector_->OnSubmit(at, ev, depth);
}

void BroadcastServer::UpdateDegraded(sim::SimTime now) {
  const std::uint32_t depth = queue_.Size();
  if (!degraded_ && depth >= shed_enter_depth_) {
    degraded_ = true;
    ++degraded_enters_;
    if (sink_ != nullptr) {
      sink_->Record(now, obs::SpanEvent::kDegradedEnter, obs::kNoClient,
                    obs::kNoTracePage, static_cast<double>(depth));
    }
    if (telemetry_bus_ != nullptr) {
      telemetry_bus_->OnDegraded(now, /*entering=*/true, depth);
    }
  } else if (degraded_ && depth <= shed_exit_depth_) {
    degraded_ = false;
    ++degraded_exits_;
    if (sink_ != nullptr) {
      sink_->Record(now, obs::SpanEvent::kDegradedExit, obs::kNoClient,
                    obs::kNoTracePage, static_cast<double>(depth));
    }
    if (telemetry_bus_ != nullptr) {
      telemetry_bus_->OnDegraded(now, /*entering=*/false, depth);
    }
  }
}

std::uint32_t BroadcastServer::SchedulePosition() const {
  return cursor_ ? cursor_->Position() : 0;
}

std::uint32_t BroadcastServer::DistanceToNextPush(PageId page) const {
  if (!cursor_) return broadcast::BroadcastProgram::kNeverBroadcast;
  return cursor_->DistanceToNext(page);
}

void BroadcastServer::OnSlotBoundary() {
  obs::PhaseScope prof(profiler_, obs::Phase::kServerSlot);
  // Barrier: the slot decision below reads the pull queue, and snoopers
  // react to the delivery; both must see every fused arrival up to now.
  simulator_->CatchUpLazySources();
  // Transmission of the in-flight slot completes now; deliver to snoopers.
  if (in_flight_page_ != broadcast::kNoPage) {
    const sim::SimTime now = simulator_->Now();
    bool deliver = true;
    if (injector_ != nullptr) {
      // Frontchannel fate: a lost slot is spent silently; a corrupted one
      // is received, checksummed, and discarded — same client-visible
      // outcome, separate books. Robust clients recover via retry (pull)
      // or the next cycle (push).
      fault::SlotFate fate;
      {
        obs::PhaseScope judge_prof(profiler_, obs::Phase::kFaultJudge);
        fate = injector_->JudgeSlot();
      }
      if (fate != fault::SlotFate::kDelivered) {
        deliver = false;
        const bool lost = fate == fault::SlotFate::kLost;
        if (sink_ != nullptr) {
          sink_->Record(now,
                        lost ? obs::SpanEvent::kSlotLost
                             : obs::SpanEvent::kSlotCorrupt,
                        obs::kNoClient, in_flight_page_);
        }
        if (collector_ != nullptr) collector_->OnSlotLoss(now);
      }
    }
    if (deliver) {
      for (BroadcastListener* listener : listeners_) {
        listener->OnBroadcast(in_flight_page_, in_flight_kind_, now);
      }
    }
  }
  ChooseNextSlot();  // The periodic slot timer re-arms itself.
}

void BroadcastServer::ChooseNextSlot() {
  obs::PhaseScope prof(profiler_, obs::Phase::kServerMux);
  ++total_slots_;
  // Fault layer: outage windows and the degraded-mode push fallback. All
  // of this is skipped (and costs one pointer compare) with no injector.
  bool blackout = false;
  bool suppress_pull = false;
  double mux_pull_bw = pull_bw_;
  if (injector_ != nullptr) {
    const bool in_outage = injector_->InOutage(simulator_->Now());
    if (in_outage != outage_active_) {
      outage_active_ = in_outage;
      if (in_outage) ++outages_started_;
      if (sink_ != nullptr) {
        sink_->Record(simulator_->Now(),
                      in_outage ? obs::SpanEvent::kOutageStart
                                : obs::SpanEvent::kOutageEnd,
                      obs::kNoClient, obs::kNoTracePage);
      }
    }
    if (in_outage) {
      ++outage_slots_;
      if (injector_->plan().brownout) {
        suppress_pull = true;  // Push rolls on; pull service is down.
      } else {
        blackout = true;  // Transmitter dark; the cursor holds its place.
      }
    }
    if (degraded_) mux_pull_bw *= degraded_pull_bw_mult_;
  }
  // Invariant: the counters below and the trace record the same decision.
  // Push/Pull MUX: a PullBW-weighted coin, but only when there is a queued
  // request — unused pull slots are given back to the push program (§2.2).
  if (blackout) {
    in_flight_page_ = broadcast::kNoPage;
    in_flight_kind_ = SlotKind::kIdle;
    ++idle_slots_;
  } else if (!suppress_pull && !queue_.Empty() &&
             rng_.NextBernoulli(mux_pull_bw)) {
    in_flight_page_ = queue_.PopFront();
    in_flight_kind_ = SlotKind::kPull;
    ++pull_slots_;
    if (shed_enter_depth_ > 0) UpdateDegraded(simulator_->Now());
  } else if (cursor_) {
    in_flight_page_ = cursor_->Advance();
    if (in_flight_page_ != broadcast::kNoPage) {
      in_flight_kind_ = SlotKind::kPush;
      ++push_slots_;
    } else {
      in_flight_kind_ = SlotKind::kIdle;  // Schedule padding (kPad mode).
      ++idle_slots_;
    }
  } else {
    in_flight_page_ = broadcast::kNoPage;
    in_flight_kind_ = SlotKind::kIdle;
    ++idle_slots_;
  }
  if (sink_ != nullptr || collector_ != nullptr) {
    const obs::SpanEvent ev = SlotEvent(in_flight_kind_);
    const sim::SimTime now = simulator_->Now();
    if (sink_ != nullptr) {
      sink_->Record(now, ev, obs::kNoClient,
                    in_flight_page_ == broadcast::kNoPage ? obs::kNoTracePage
                                                          : in_flight_page_);
    }
    if (collector_ != nullptr) collector_->OnSlot(now, ev, queue_.Size());
  }
  if (ts_push_frac_ != nullptr) SampleSlotWindow();
}

void BroadcastServer::SampleSlotWindow() {
  switch (in_flight_kind_) {
    case SlotKind::kPush:
      ++window_push_;
      break;
    case SlotKind::kPull:
      ++window_pull_;
      break;
    case SlotKind::kIdle:
      ++window_idle_;
      break;
  }
  if (++window_slots_ < kMetricsWindowSlots) return;
  const sim::SimTime now = simulator_->Now();
  const double n = static_cast<double>(window_slots_);
  ts_push_frac_->Add(now, window_push_ / n);
  ts_pull_frac_->Add(now, window_pull_ / n);
  ts_idle_frac_->Add(now, window_idle_ / n);
  ts_queue_depth_->Add(now, static_cast<double>(queue_.Size()));
  window_slots_ = window_push_ = window_pull_ = window_idle_ = 0;
}

}  // namespace bdisk::server
