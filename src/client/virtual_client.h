#ifndef BDISK_CLIENT_VIRTUAL_CLIENT_H_
#define BDISK_CLIENT_VIRTUAL_CLIENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "broadcast/span_table.h"
#include "client/arrival_ring.h"
#include "client/threshold_filter.h"
#include "server/broadcast_server.h"
#include "server/update_generator.h"
#include "sim/arrival_lanes.h"
#include "sim/byte_mask.h"
#include "sim/event_queue.h"
#include "sim/lazy_source.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/access_generator.h"
#include "workload/access_pattern.h"

namespace bdisk::client {

using broadcast::PageId;

/// Configuration of the virtual client.
struct VirtualClientOptions {
  /// Mean request inter-arrival time = mc_think_time / think_time_ratio
  /// (exponential). ThinkTimeRatio is the paper's server-load axis: the VC
  /// stands in for a population of ~ThinkTimeRatio clients running at the
  /// measured client's rate.
  double mc_think_time = 20.0;
  double think_time_ratio = 10.0;

  /// Fraction of represented clients in steady state (SteadyStatePerc).
  /// Steady-state requests are filtered through a fully warmed cache;
  /// warm-up requests always miss (§3.1).
  double steady_state_perc = 0.95;

  /// Threshold fraction applied to every request the VC submits.
  double thres_perc = 0.0;

  /// Cache size used to derive the warmed-cache contents.
  std::uint32_t cache_size = 100;

  /// Fused (default, the production path): arrivals are drained in
  /// batches through the simulator's lazy-source barrier — a classify pass
  /// over pre-drawn arrivals at the barrier-frozen schedule position —
  /// instead of costing one heap event each. Unfused is the semantic
  /// oracle: a separately written evented path that schedules one heap
  /// event per arrival (SystemConfig::vc_fusion, and forced by
  /// fault.request_delay). Either way the trajectory is bit-identical; see
  /// DESIGN.md, "The lazy-source contract".
  bool fused = true;
};

/// The Virtual Client (VC, §3.1): a single open-loop process standing in
/// for the whole client population other than the measured client.
///
/// Each arrival: draw a page from the canonical pattern; with probability
/// SteadyStatePerc treat the represented client as warmed-up — its cache
/// holds exactly the CacheSize highest-valued pages (the paper's own
/// steady-state assumption), so only misses against that fixed set reach
/// the backchannel; otherwise the represented client is warming up and
/// every access is a miss. All submitted requests pass the threshold
/// filter. The VC never blocks: it models aggregate *load*, so arrivals are
/// independent of service (this is what lets the server saturate and drop
/// requests, as the paper reports).
///
/// Never blocking is also what makes the VC a valid lazy source: its next
/// arrival time depends only on its own RNG stream, and the state it reads
/// (schedule cursor, warm flags) changes only at drain barriers.
class VirtualClient : public sim::LazySource,
                      public sim::EventHandler,
                      public server::InvalidationListener {
 public:
  /// `pattern` is the canonical (server-side) access pattern; `warm_pages`
  /// the ideal cache contents under the active value metric (PIX for
  /// push-based configurations, P for Pure-Pull).
  VirtualClient(sim::Simulator* simulator, server::BroadcastServer* server,
                const workload::AccessPattern& pattern,
                const std::vector<PageId>& warm_pages,
                const VirtualClientOptions& options, sim::Rng rng);

  ~VirtualClient() override;

  VirtualClient(const VirtualClient&) = delete;
  VirtualClient& operator=(const VirtualClient&) = delete;

  /// Begins generating requests (first arrival after one think interval).
  void Start();

  /// Volatile-data extension: an update knocks the page out of the
  /// represented warm caches; the next steady-state access to it misses,
  /// reaches the server, and re-warms it (the population re-fetches).
  /// A barrier: arrivals up to `now` still see the page as warm.
  void OnInvalidate(PageId page, sim::SimTime now) override;

  /// Arrivals the fused path draws per refill of its batch: four lanes of
  /// 64 (sim::DrawArrivals).
  static constexpr std::uint32_t kArrivalBatch = sim::kRefillArrivals;

  /// LazySource: processes every arrival with timestamp <= `horizon`.
  std::uint64_t CatchUp(sim::SimTime horizon) override;

  /// Lifetime counters.
  std::uint64_t RequestsGenerated() const { return generated_; }
  std::uint64_t CacheHits() const { return cache_hits_; }
  std::uint64_t FilteredByThreshold() const { return filtered_; }
  std::uint64_t RequestsSubmitted() const { return submitted_; }

  /// Whether this VC runs the fused path (false when the configuration
  /// asked for the unfused oracle or fault.request_delay forced it).
  bool Fused() const { return options_.fused; }

  /// The fused path's refills, and whether a producer thread draws them.
  const ArrivalRing& arrival_ring() const { return arrivals_; }

 private:
  /// EventHandler: one unfused arrival (the oracle path): draw the page
  /// and the steady-state coin, route through warm cache / threshold
  /// filter / backchannel, and schedule the next wakeup.
  void OnEvent() override;

  /// Fused path: releases the held refill and returns the next, whose
  /// first arrival is at `start` and whose arrivals are drawn in the
  /// oracle's per-arrival order (page, steady coin, think) by FillRefill,
  /// inline or on the producer thread.
  const ArrivalRefill& RefillArrivals(sim::SimTime start);

  sim::Simulator* simulator_;
  server::BroadcastServer* server_;
  workload::AccessGenerator generator_;
  double think_mean_;  // Exponential think time: mc_think_time / TTR.
  VirtualClientOptions options_;
  ThresholdFilter filter_;
  sim::ByteMask warm_cached_;  // Currently valid warm copies.
  sim::ByteMask ideal_warm_;   // The warm set itself (never changes).
  sim::Rng rng_;

  bool registered_ = false;                       // Fused path.
  sim::EventId wakeup_ = sim::kInvalidEventId;    // Unfused oracle.

  // Fused path: pre-drawn arrivals. The draws depend only on rng_, so
  // they can run ahead of the simulated clock; from the first refill on
  // the ring draws from its own copy, and rng_ is not touched again. The
  // next arrival is at `next_at_` (kTimeNever before Start()), entry
  // `cursor_` of the held refill `batch_` (null before the first refill).
  ArrivalRing arrivals_;
  const ArrivalRefill* batch_ = nullptr;
  std::uint32_t cursor_ = kArrivalBatch;
  sim::SimTime next_at_ = sim::kTimeNever;
  // CatchUp's submit buffer, kept here so no drain pays to clear it:
  // written before it is read.
  std::array<PageId, kArrivalBatch> submit_page_{};
  std::array<sim::SimTime, kArrivalBatch> submit_at_{};

  // Fused path: the whole-cycle threshold-decision table, or null where
  // none is feasible (CatchUp then asks the server, as the oracle does).
  std::unique_ptr<const broadcast::CycleSpanTable> span_table_;

  std::uint64_t generated_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t filtered_ = 0;
  std::uint64_t submitted_ = 0;
};

}  // namespace bdisk::client

#endif  // BDISK_CLIENT_VIRTUAL_CLIENT_H_
