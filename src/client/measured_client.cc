#include "client/measured_client.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/check.h"

namespace bdisk::client {

MeasuredClient::MeasuredClient(
    sim::Simulator* simulator, server::BroadcastServer* server,
    const workload::AccessPattern& pattern,
    const MeasuredClientOptions& options, sim::Rng rng,
    std::optional<std::vector<PageId>> warmup_target)
    : sim::Process(simulator),
      server_(server),
      generator_(pattern),
      options_(options),
      filter_(options.thres_perc, server->program().Length()),
      rng_(rng),
      response_histogram_(0.0, 4.0 * server->program().DbSize(), 1024),
      probs_(pattern.probs()) {
  BDISK_CHECK_MSG(server != nullptr, "client needs a server");
  BDISK_CHECK_MSG(options.think_time > 0.0, "think time must be positive");
  BDISK_CHECK_MSG(pattern.DbSize() == server->program().DbSize(),
                  "client pattern and server database sizes disagree");
  BDISK_CHECK_MSG(!options.prefetch || !server->program().Empty(),
                  "PT prefetching needs a push program to prefetch from");
  cache_ = std::make_unique<cache::Cache>(
      options.cache_size, server->program().DbSize(),
      cache::MakePolicy(options.policy, pattern.probs(), &server->program()));
  if (warmup_target.has_value()) {
    warmup_tracker_.emplace(*warmup_target, server->program().DbSize());
  }
  server_->AddListener(this);
}

void MeasuredClient::Start() {
  BDISK_CHECK_MSG(state_ == State::kIdle, "client already started");
  MakeRequest();
}

void MeasuredClient::EnableRobustness(const RobustPullOptions& options,
                                      sim::Rng rng) {
  BDISK_CHECK_MSG(state_ == State::kIdle,
                  "enable robustness before Start()");
  BDISK_CHECK_MSG(options.timeout > 0.0, "robust timeout must be positive");
  BDISK_CHECK_MSG(options.backoff >= 1.0, "robust backoff must be >= 1");
  BDISK_CHECK_MSG(options.backoff_cap >= options.timeout,
                  "robust backoff cap below the base timeout");
  BDISK_CHECK_MSG(options.jitter >= 0.0 && options.jitter <= 1.0,
                  "robust jitter must be a fraction in [0,1]");
  BDISK_CHECK_MSG(options.probe_interval > 0.0,
                  "robust probe interval must be positive");
  robust_ = options;
  retry_rng_ = rng;
}

void MeasuredClient::SetThresPerc(double thres_perc) {
  options_.thres_perc = thres_perc;
  filter_ = ThresholdFilter(thres_perc, server_->program().Length());
}

void MeasuredClient::EnableMetrics(obs::MetricsRegistry* registry) {
  BDISK_CHECK_MSG(registry != nullptr, "EnableMetrics needs a registry");
  cache_->SetEvictionValueStats(
      registry->GetStats("client.mc.cache.evict_value"));
}

void MeasuredClient::OnWakeup() {
  // Barrier: both branches submit to the shared pull queue (and record
  // trace events at Now()); fused virtual-client arrivals up to now must
  // land first.
  simulator()->CatchUpLazySources();
  switch (state_) {
    case State::kThinking:
      MakeRequest();
      return;
    case State::kWaiting:
      if (robust_) {
        OnRobustTimeout();
        return;
      }
      // Legacy retry timer: our earlier pull for an unscheduled page may
      // have been dropped (we get no feedback); resend and re-arm.
      BDISK_DCHECK(waiting_unscheduled_ && options_.retry_interval > 0.0);
      if (options_.use_backchannel) {
        if (sink_ != nullptr) {
          sink_->Record(Now(), obs::SpanEvent::kRetry, obs::kMeasuredClientId,
                        waiting_page_);
        }
        SubmitPull(waiting_page_);
        ++retries_sent_;
      }
      ScheduleWakeup(options_.retry_interval);
      return;
    case State::kIdle:
      BDISK_CHECK_MSG(false, "wakeup while idle");
  }
}

void MeasuredClient::MakeRequest() {
  obs::PhaseScope prof(simulator()->phase_profiler(),
                       obs::Phase::kMcRequest);
  const PageId page = generator_.Next(rng_);
  ++total_accesses_;
  if (sink_ != nullptr) {
    sink_->Record(Now(), obs::SpanEvent::kRequest, obs::kMeasuredClientId,
                  page);
  }
  if (cache_->Access(page)) {
    if (sink_ != nullptr) {
      sink_->Record(Now(), obs::SpanEvent::kCacheHit, obs::kMeasuredClientId,
                    page);
    }
    CompleteAccess(0.0);
    return;
  }
  if (sink_ != nullptr) {
    sink_->Record(Now(), obs::SpanEvent::kCacheMiss, obs::kMeasuredClientId,
                  page);
  }
  state_ = State::kWaiting;
  waiting_page_ = page;
  request_time_ = Now();
  const std::uint32_t distance = server_->DistanceToNextPush(page);
  waiting_unscheduled_ =
      (distance == broadcast::BroadcastProgram::kNeverBroadcast);
  // A client with no backchannel can only ever obtain scheduled pages.
  BDISK_CHECK_MSG(options_.use_backchannel || !waiting_unscheduled_,
                  "push-only client blocked on a page that is never pushed");
  predicted_push_wait_ = 0.0;
  if (options_.use_backchannel && filter_.ShouldPull(distance)) {
    bool send = true;
    if (robust_ && backchannel_dead_ && !waiting_unscheduled_ &&
        ever_probed_ &&
        Now() - last_probe_time_ < robust_->probe_interval) {
      // Dead backchannel, probe budget spent: scheduled pages lean on the
      // push safety net instead of wasting a pull. Unscheduled pages never
      // take this branch — pull is their only path.
      send = false;
      ++fallbacks_;
      if (sink_ != nullptr) {
        sink_->Record(Now(), obs::SpanEvent::kFallback,
                      obs::kMeasuredClientId, page);
      }
    }
    if (send) {
      if (robust_) {
        SendRobustPull(page);
      } else {
        SubmitPull(page);
        ++pull_requests_sent_;
      }
      if (!waiting_unscheduled_) {
        // +1: the transmission slot. Push slots are a lower bound on real
        // time (interleaved pulls delay the schedule), making the ratio a
        // slightly optimistic saturation signal — which is the safe side.
        predicted_push_wait_ = static_cast<double>(distance) + 1.0;
      }
    }
  } else if (options_.use_backchannel && sink_ != nullptr) {
    sink_->Record(Now(), obs::SpanEvent::kSubmitFiltered,
                  obs::kMeasuredClientId, page,
                  static_cast<double>(distance));
  }
  if (!robust_ && waiting_unscheduled_ && options_.retry_interval > 0.0) {
    ScheduleWakeup(options_.retry_interval);
  }
}

void MeasuredClient::SubmitPull(PageId page) {
  server_->SubmitRequest(page, obs::kMeasuredClientId);
}

void MeasuredClient::SendRobustPull(PageId page) {
  SubmitPull(page);
  ++pull_requests_sent_;
  if (backchannel_dead_) {
    ++probes_sent_;
    last_probe_time_ = Now();
    ever_probed_ = true;
  }
  attempt_ = 0;
  pull_outstanding_ = true;
  ArmRobustTimeout();
}

void MeasuredClient::ArmRobustTimeout() {
  // Shared backoff engine (fault/backoff.h): scale by attempt, clamp to the
  // cap, stretch by deterministic jitter from the dedicated stream. The
  // same policy arithmetic paces datagram-transport reconnects.
  const fault::BackoffPolicy policy{robust_->timeout, robust_->backoff,
                                    robust_->backoff_cap, robust_->jitter};
  armed_timeout_ = fault::JitteredBackoffDelay(policy, attempt_, &retry_rng_);
  ScheduleWakeup(armed_timeout_);
}

void MeasuredClient::OnRobustTimeout() {
  ++timeouts_fired_;
  if (sink_ != nullptr) {
    sink_->Record(Now(), obs::SpanEvent::kTimeout, obs::kMeasuredClientId,
                  waiting_page_, armed_timeout_);
  }
  armed_timeout_ = 0.0;
  if (attempt_ < robust_->max_retries) {
    ++attempt_;
    if (sink_ != nullptr) {
      sink_->Record(Now(), obs::SpanEvent::kRetry, obs::kMeasuredClientId,
                    waiting_page_);
    }
    SubmitPull(waiting_page_);
    ++retries_sent_;
    if (backchannel_dead_) {
      ++probes_sent_;
      last_probe_time_ = Now();
      ever_probed_ = true;
    }
    ArmRobustTimeout();
    return;
  }
  // Retry budget spent: the whole request failed on the backchannel.
  pull_outstanding_ = false;
  ++consecutive_failures_;
  if (!backchannel_dead_ && robust_->dead_threshold > 0 &&
      consecutive_failures_ >= robust_->dead_threshold) {
    backchannel_dead_ = true;
    ++backchannel_deaths_;
  }
  if (waiting_unscheduled_) {
    // No push safety net exists for this page: resolve the request with an
    // explicit timeout rather than hanging forever. The elapsed time is
    // the access's (poor) response time — visible in the tail, not hidden.
    const double elapsed = Now() - request_time_;
    ++abandoned_;
    if (sink_ != nullptr) {
      sink_->Record(Now(), obs::SpanEvent::kAbandon, obs::kMeasuredClientId,
                    waiting_page_, elapsed);
    }
    CompleteAccess(elapsed);
    return;
  }
  // Scheduled page: fall back to waiting on the broadcast. No more timers;
  // the periodic schedule delivers within one major cycle.
  ++fallbacks_;
  if (sink_ != nullptr) {
    sink_->Record(Now(), obs::SpanEvent::kFallback, obs::kMeasuredClientId,
                  waiting_page_);
  }
}

void MeasuredClient::CompleteAccess(double response_time) {
  if (recording_) {
    response_times_.Add(response_time);
    response_histogram_.Add(response_time);
  }
  if (collector_ != nullptr) collector_->OnResponse(Now(), response_time);
  state_ = State::kThinking;
  waiting_page_ = broadcast::kNoPage;
  ScheduleWakeup(options_.think_time);
  if (on_access_complete_) on_access_complete_(response_time);
}

void MeasuredClient::OnBroadcast(PageId page, server::SlotKind kind,
                                 sim::SimTime now) {
  obs::PhaseScope prof(simulator()->phase_profiler(),
                       obs::Phase::kMcDelivery);
  if (robust_ && backchannel_dead_ && kind == server::SlotKind::kPull) {
    // Snooped proof of life: a pull slot means the server is answering
    // requests again — revive the backchannel for everyone listening.
    backchannel_dead_ = false;
    consecutive_failures_ = 0;
    ++backchannel_recoveries_;
  }
  if (state_ == State::kWaiting && page == waiting_page_) {
    if (predicted_push_wait_ > 0.0) {
      // A wait below one transmission time means the page was already in
      // flight when we asked — luck, not evidence about server health;
      // skip the sample.
      const double wait = now - request_time_;
      if (wait >= 1.0) {
        constexpr double kAlpha = 0.05;
        const double ratio = std::min(1.0, wait / predicted_push_wait_);
        pull_wait_ratio_ =
            pull_wait_ratio_ == 0.0
                ? ratio
                : kAlpha * ratio + (1.0 - kAlpha) * pull_wait_ratio_;
      }
      predicted_push_wait_ = 0.0;
    }
    InsertIntoCache(page, now);
    CancelWakeup();  // Disarm any pending retry/timeout timer.
    if (robust_) {
      // A delivery while our pull was live counts as backchannel success;
      // a delivery after fallback proves nothing about it.
      if (pull_outstanding_) consecutive_failures_ = 0;
      pull_outstanding_ = false;
      attempt_ = 0;
      armed_timeout_ = 0.0;
    }
    if (sink_ != nullptr) {
      sink_->Record(now, obs::SpanEvent::kDelivery, obs::kMeasuredClientId,
                    page, now - request_time_);
    }
    CompleteAccess(now - request_time_);
    return;
  }
  if (options_.prefetch) ConsiderPrefetch(page, now);
}

void MeasuredClient::OnInvalidate(PageId page, sim::SimTime now) {
  ++invalidations_seen_;
  if (cache_->Remove(page)) {
    if (sink_ != nullptr) {
      sink_->Record(now, obs::SpanEvent::kInvalidate, obs::kMeasuredClientId,
                    page);
    }
    if (warmup_tracker_) warmup_tracker_->OnEvict(page, now);
  }
}

void MeasuredClient::InsertIntoCache(PageId page, sim::SimTime now) {
  const std::optional<PageId> evicted = cache_->Insert(page);
  if (warmup_tracker_) {
    if (evicted.has_value()) warmup_tracker_->OnEvict(*evicted, now);
    warmup_tracker_->OnInsert(page, now);
  }
}

void MeasuredClient::ConsiderPrefetch(PageId page, sim::SimTime now) {
  if (cache_->Contains(page)) return;
  if (!cache_->IsFull()) {
    InsertIntoCache(page, now);
    ++prefetches_;
    return;
  }
  const broadcast::BroadcastProgram& program = server_->program();
  const double cycle = static_cast<double>(program.Length());
  // The passing page just went by: its next arrival is one full gap away.
  const std::uint32_t freq = program.Frequency(page);
  BDISK_DCHECK(freq > 0);  // It was on the broadcast just now.
  const double pt_in =
      probs_[page] * (cycle / static_cast<double>(freq));

  // Victim: the resident page with the lowest p*t, t = time until it can
  // be re-read from the broadcast. Unscheduled residents can't be re-read
  // (pull only), so they get t = 2 cycles and rarely lose their slot.
  double pt_min = std::numeric_limits<double>::infinity();
  PageId victim = broadcast::kNoPage;
  const sim::ByteMask& mask = cache_->resident_mask();
  for (PageId r = 0; r < mask.size(); ++r) {
    if (!mask[r]) continue;
    const std::uint32_t distance = server_->DistanceToNextPush(r);
    const double t =
        distance == broadcast::BroadcastProgram::kNeverBroadcast
            ? 2.0 * cycle
            : static_cast<double>(distance) + 1.0;
    const double pt = probs_[r] * t;
    if (pt < pt_min) {
      pt_min = pt;
      victim = r;
    }
  }
  if (pt_in > pt_min) {
    cache_->Remove(victim);
    if (warmup_tracker_) warmup_tracker_->OnEvict(victim, now);
    InsertIntoCache(page, now);
    ++prefetches_;
  }
}

}  // namespace bdisk::client
