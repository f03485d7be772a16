#ifndef BDISK_CLIENT_MEASURED_CLIENT_H_
#define BDISK_CLIENT_MEASURED_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.h"
#include "client/threshold_filter.h"
#include "fault/backoff.h"
#include "client/warmup_tracker.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"
#include "server/broadcast_server.h"
#include "server/update_generator.h"
#include "sim/process.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "workload/access_generator.h"
#include "workload/access_pattern.h"

namespace bdisk::client {

/// Configuration of a measured client.
struct MeasuredClientOptions {
  /// Client cache size in pages (Table 1: 100).
  std::uint32_t cache_size = 100;

  /// Replacement policy: PIX whenever a push program exists, P for
  /// Pure-Pull (§3.1).
  cache::PolicyKind policy = cache::PolicyKind::kPix;

  /// Fixed think time between requests, in broadcast units (Table 3: 20).
  double think_time = 20.0;

  /// Backchannel present? False models Pure-Push clients, which can only
  /// wait for the periodic broadcast.
  bool use_backchannel = true;

  /// Threshold fraction (ThresPerc). Ignored when use_backchannel is false.
  double thres_perc = 0.0;

  /// Re-submission interval for pulls of pages that are NOT on the push
  /// schedule. The paper gives clients no feedback about dropped requests;
  /// without a safety net, a dropped request for an unscheduled page would
  /// block the client forever unless some other client pulls the same page.
  /// Real clients time out and resend; we do the same (see DESIGN.md).
  /// 0 disables retries. Only unscheduled pages are ever retried — for
  /// scheduled pages the push program bounds the wait.
  double retry_interval = 0.0;

  /// Opportunistic PT prefetching from the broadcast ([Acha96a], cited in
  /// §5): for every page flowing past, if its value p*t (access
  /// probability x time until it next comes around) exceeds the lowest
  /// p*t among cached pages, swap it in. Requires a push program.
  bool prefetch = false;
};

/// Resolved client-robustness settings (bdisk::fault). Auto-defaults (0
/// values in the FaultPlan) are resolved by core::System before this
/// reaches the client, so every field here is concrete and positive where
/// it must be. Engaging these replaces the legacy unscheduled-retry timer
/// with a full timeout/retry/backoff engine on every pull.
struct RobustPullOptions {
  /// Base per-request timeout in broadcast units (> 0).
  double timeout = 0.0;
  /// Bounded retries per request after the initial pull.
  std::uint32_t max_retries = 3;
  /// Timeout multiplier per retry (>= 1).
  double backoff = 2.0;
  /// Absolute cap on the backed-off timeout, pre-jitter (> 0).
  double backoff_cap = 0.0;
  /// Each armed timeout is stretched by a uniform draw in
  /// [0, jitter * timeout) from the client's dedicated retry RNG stream —
  /// deterministic per seed, decorrelated across requests.
  double jitter = 0.1;
  /// Consecutive fully-failed requests before the backchannel is declared
  /// dead; 0 = never.
  std::uint32_t dead_threshold = 5;
  /// While dead, minimum spacing between probe pulls for scheduled pages
  /// (> 0). Unscheduled pages always pull — it is their only path — and
  /// snooping any pull-slot delivery revives the backchannel immediately.
  double probe_interval = 0.0;
};

/// The Measured Client (MC, §3.1): a closed-loop "request–think" process
/// whose response times are the primary experimental metric.
///
/// Per access: consult the cache (a hit costs 0 and is included in the
/// average); on a miss, optionally send a pull request (threshold filter
/// permitting) and block until the page appears on the frontchannel —
/// whether as a scheduled push, the response to our pull, or a snooped
/// response to someone else's. Then think for `think_time` and repeat.
class MeasuredClient : public sim::Process,
                       public server::BroadcastListener,
                       public server::InvalidationListener {
 public:
  /// `pattern` is this client's own access pattern (possibly Noise-
  /// perturbed). The client registers itself as a listener on `server`.
  /// `warmup_target` (optional) enables warm-up tracking against the given
  /// ideal cache contents.
  MeasuredClient(sim::Simulator* simulator, server::BroadcastServer* server,
                 const workload::AccessPattern& pattern,
                 const MeasuredClientOptions& options, sim::Rng rng,
                 std::optional<std::vector<PageId>> warmup_target =
                     std::nullopt);

  /// Begins the request–think loop with an immediate first request.
  void Start();

  /// Invoked after every completed access (hit or retrieved page), with the
  /// response time of that access. The experiment driver uses this to
  /// switch measurement phases and stop the run.
  void SetOnAccessComplete(std::function<void(double response_time)> cb) {
    on_access_complete_ = std::move(cb);
  }

  /// When true, completed accesses are recorded into response_times().
  void SetRecording(bool recording) { recording_ = recording; }

  /// Re-tunes the threshold fraction at runtime (adaptive clients, paper
  /// §6: "use a larger threshold at the client" as contention grows).
  void SetThresPerc(double thres_perc);

  /// Current threshold fraction.
  double thres_perc() const { return options_.thres_perc; }

  /// Exponentially weighted mean of (actual wait) / (scheduled push wait)
  /// over this client's recent pulls of *scheduled* pages. Near 0: pulls
  /// are answered far ahead of the push schedule (server healthy). Near 1:
  /// pulls gain nothing over just waiting (requests are being dropped) —
  /// the only saturation signal a client can compute locally, since the
  /// server sends no feedback. Returns 0 before any pull completes.
  double PullWaitRatio() const { return pull_wait_ratio_; }

  /// Attaches the system-wide structured trace (not owned; null detaches).
  /// Every access is recorded as request / hit-or-miss / filtered / retry /
  /// delivery records under obs::kMeasuredClientId.
  void SetTraceSink(obs::TraceSink* sink) { sink_ = sink; }

  /// Attaches the windowed telemetry collector (not owned; null detaches).
  /// Every completed access (cache hits included, at 0) feeds its response
  /// time into the current window.
  void SetWindowedCollector(obs::WindowedCollector* collector) {
    collector_ = collector;
  }

  /// Engages the robust pull engine (bdisk::fault): per-request timeouts,
  /// bounded retries with exponential backoff and deterministic jitter,
  /// dead-backchannel detection with fallback-to-broadcast, and explicit
  /// abandonment of unscheduled-page requests once the retry budget is
  /// spent. `rng` must be a dedicated stream (jitter draws never perturb
  /// the access stream). Call before Start(); supersedes the legacy
  /// retry_interval timer.
  void EnableRobustness(const RobustPullOptions& options, sim::Rng rng);

  /// Robustness accounting (all zero unless EnableRobustness was called).
  std::uint64_t TimeoutsFired() const { return timeouts_fired_; }
  std::uint64_t Abandoned() const { return abandoned_; }
  std::uint64_t Fallbacks() const { return fallbacks_; }
  std::uint64_t ProbesSent() const { return probes_sent_; }
  std::uint64_t BackchannelDeaths() const { return backchannel_deaths_; }
  std::uint64_t BackchannelRecoveries() const {
    return backchannel_recoveries_;
  }
  bool BackchannelDead() const { return backchannel_dead_; }

  /// Attaches a metrics registry (not owned): wires the cache's
  /// eviction-value stream into "client.mc.cache.evict_value". Lifetime
  /// counters and the response histogram are snapshotted at collect time
  /// instead (see core::System::SnapshotMetrics), so nothing else changes
  /// on the hot path.
  void EnableMetrics(obs::MetricsRegistry* registry);

  // BroadcastListener:
  void OnBroadcast(PageId page, server::SlotKind kind,
                   sim::SimTime now) override;

  // InvalidationListener: a stale cached copy is dropped; the next access
  // to the page is a miss (volatile-data extension, [Acha96b]).
  void OnInvalidate(PageId page, sim::SimTime now) override;

  /// Recorded response times (only accesses completed while recording).
  const sim::RunningStats& response_times() const { return response_times_; }

  /// Bucketed distribution of the same recorded response times — the
  /// source of RunResult's p50/p90/p95/p99. Always on: Add() is two array
  /// writes, negligible against an event dispatch, and keeping it
  /// unconditional means percentiles are available without any registry.
  const obs::LatencyHistogram& response_histogram() const {
    return response_histogram_;
  }

  /// Lifetime access counters.
  std::uint64_t TotalAccesses() const { return total_accesses_; }
  std::uint64_t CacheHits() const { return cache_->Hits(); }
  std::uint64_t PullRequestsSent() const { return pull_requests_sent_; }
  std::uint64_t RetriesSent() const { return retries_sent_; }
  std::uint64_t Prefetches() const { return prefetches_; }
  std::uint64_t InvalidationsSeen() const { return invalidations_seen_; }

  /// The client cache.
  const cache::Cache& cache() const { return *cache_; }

  /// Warm-up trajectory; null unless a warm-up target was supplied.
  const WarmupTracker* warmup_tracker() const {
    return warmup_tracker_ ? &*warmup_tracker_ : nullptr;
  }

  /// True while blocked on a page.
  bool IsWaiting() const { return state_ == State::kWaiting; }

 protected:
  void OnWakeup() override;

 private:
  enum class State { kIdle, kThinking, kWaiting };

  void MakeRequest();
  /// Single choke point for backchannel submissions (initial, retry,
  /// probe, legacy resend).
  void SubmitPull(PageId page);
  void CompleteAccess(double response_time);
  void InsertIntoCache(PageId page, sim::SimTime now);
  void ConsiderPrefetch(PageId page, sim::SimTime now);

  /// Robust engine: arms the wakeup timer with the backed-off, capped,
  /// jittered timeout for the current attempt number.
  void ArmRobustTimeout();
  /// Robust engine: the armed timeout fired while waiting.
  void OnRobustTimeout();
  /// Robust engine: submits the pull for the current attempt (initial or
  /// probe), arming the timeout.
  void SendRobustPull(PageId page);

  server::BroadcastServer* server_;
  workload::AccessGenerator generator_;
  MeasuredClientOptions options_;
  ThresholdFilter filter_;
  std::unique_ptr<cache::Cache> cache_;
  std::optional<WarmupTracker> warmup_tracker_;
  sim::Rng rng_;

  State state_ = State::kIdle;
  PageId waiting_page_ = broadcast::kNoPage;
  sim::SimTime request_time_ = 0.0;
  bool waiting_unscheduled_ = false;

  // Robust pull engine (bdisk::fault); inert unless robust_ is engaged.
  std::optional<RobustPullOptions> robust_;
  sim::Rng retry_rng_{0};         // Dedicated jitter stream.
  std::uint32_t attempt_ = 0;     // Retries spent on the current request.
  double armed_timeout_ = 0.0;    // The timeout currently armed; 0 = none.
  bool pull_outstanding_ = false; // A robust pull awaits answer or timeout.
  std::uint32_t consecutive_failures_ = 0;
  bool backchannel_dead_ = false;
  sim::SimTime last_probe_time_ = 0.0;
  bool ever_probed_ = false;
  std::uint64_t timeouts_fired_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t backchannel_deaths_ = 0;
  std::uint64_t backchannel_recoveries_ = 0;
  // Scheduled-push wait (slots + transmission) predicted when the current
  // pull was sent; 0 when no pull is outstanding for a scheduled page.
  double predicted_push_wait_ = 0.0;
  double pull_wait_ratio_ = 0.0;

  bool recording_ = false;
  sim::RunningStats response_times_;
  // [0, 4 DbSize) spans everything short of pathological saturation: the
  // worst scheduled wait is one major cycle (< 3 DbSize for the paper's
  // flattest disk) and overflow is still counted and visible in exports.
  obs::LatencyHistogram response_histogram_;
  obs::TraceSink* sink_ = nullptr;
  obs::WindowedCollector* collector_ = nullptr;
  std::uint64_t total_accesses_ = 0;
  std::uint64_t pull_requests_sent_ = 0;
  std::uint64_t retries_sent_ = 0;
  std::uint64_t prefetches_ = 0;
  std::uint64_t invalidations_seen_ = 0;
  std::vector<double> probs_;  // Own access probabilities (prefetch value).
  std::function<void(double)> on_access_complete_;
};

}  // namespace bdisk::client

#endif  // BDISK_CLIENT_MEASURED_CLIENT_H_
