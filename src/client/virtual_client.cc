#include "client/virtual_client.h"

#include "sim/check.h"

namespace bdisk::client {

VirtualClient::VirtualClient(sim::Simulator* simulator,
                             server::BroadcastServer* server,
                             const workload::AccessPattern& pattern,
                             const std::vector<PageId>& warm_pages,
                             const VirtualClientOptions& options, sim::Rng rng)
    : simulator_(simulator),
      server_(server),
      generator_(pattern),
      think_mean_(options.mc_think_time / options.think_time_ratio),
      options_(options),
      filter_(options.thres_perc, server->program().Length()),
      warm_cached_(pattern.DbSize(), false),
      ideal_warm_(pattern.DbSize(), false),
      rng_(rng),
      arrivals_(&rng_, {&generator_.sampler(), options.steady_state_perc,
                        think_mean_}) {
  BDISK_CHECK_MSG(think_mean_ > 0.0, "think time mean must be positive");
  BDISK_CHECK_MSG(simulator != nullptr, "client needs a simulator");
  BDISK_CHECK_MSG(server != nullptr, "client needs a server");
  BDISK_CHECK_MSG(options.think_time_ratio > 0.0,
                  "ThinkTimeRatio must be positive");
  BDISK_CHECK_MSG(options.steady_state_perc >= 0.0 &&
                      options.steady_state_perc <= 1.0,
                  "SteadyStatePerc must be a fraction in [0,1]");
  BDISK_CHECK_MSG(warm_pages.size() == options.cache_size,
                  "warmed cache must contain exactly CacheSize pages");
  for (const PageId p : warm_pages) {
    BDISK_CHECK_MSG(p < pattern.DbSize(), "warm page out of range");
    warm_cached_[p] = true;
    ideal_warm_[p] = true;
  }
  if (options.fused) {
    // Whole-cycle threshold-decision table: one bit test per arrival
    // instead of an occurrence search. Null (empty program, or a
    // degenerate cycle too large for the bitset) leaves CatchUp the
    // server's own search, the one the oracle runs.
    span_table_ = broadcast::CycleSpanTable::BuildIfFeasible(
        server->program(), filter_.ThresholdSlots());
  }
}

VirtualClient::~VirtualClient() {
  if (registered_) simulator_->UnregisterLazySource(this);
  if (wakeup_ != sim::kInvalidEventId) simulator_->Cancel(wakeup_);
}

void VirtualClient::Start() {
  // Both paths draw the first think interval here, so the RNG stream is
  // consumed at the same point regardless of fusion.
  const sim::SimTime first = rng_.NextExponential(think_mean_);
  if (options_.fused) {
    next_at_ = simulator_->Now() + first;
    simulator_->RegisterLazySource(this);
    registered_ = true;
  } else {
    wakeup_ = simulator_->ScheduleAfter(first, this);
  }
}

void VirtualClient::OnInvalidate(PageId page, sim::SimTime /*now*/) {
  // Barrier: arrivals strictly before the update must filter through the
  // still-warm copy, so drain before clearing the flag.
  simulator_->CatchUpLazySources();
  warm_cached_[page] = false;
}

const ArrivalRefill& VirtualClient::RefillArrivals(sim::SimTime start) {
  // Inline, the draw itself; with a producer, the wait for its hand-off.
  obs::PhaseScope prof(simulator_->phase_profiler(), obs::Phase::kVcDraw);
  prof.AddOps(kArrivalBatch);
  return arrivals_.Next(start);
}

std::uint64_t VirtualClient::CatchUp(sim::SimTime horizon) {
  if (next_at_ > horizon) return 0;
  // The VC arrival hot path (ROADMAP): one frame per non-empty drain,
  // arrivals as ops — never a per-arrival timestamp. Inclusive of the
  // refills (vc.draw) and the submit flushes (server.queue) it runs.
  obs::PhaseScope prof(simulator_->phase_profiler(),
                       obs::Phase::kVcArrival);
  // Barrier-frozen position: the cursor cannot move during a drain (it
  // only advances in the server's slot decision, which runs after the
  // CatchUpLazySources barrier), so one position serves the whole batch.
  const std::uint32_t pos = server_->SchedulePosition();
  const broadcast::CycleSpanTable* table = span_table_.get();
  const std::uint8_t* ideal = ideal_warm_.data();
  std::uint8_t* warm = warm_cached_.data();
  // Submit buffer: every arrival writes its (page, time), and the count
  // advances only for a submit (miss & pull), so the classify loop has no
  // submit branch; 38% of arrivals submit at both of the benchmark's
  // loads, too many to predict. The buffer is flushed before each refill
  // (so it never holds more than one batch) and at the end, so submits
  // reach the server in arrival order, each with its own timestamp.
  // Deferring them is safe: SubmitRequestsAt never re-enters the VC (it
  // does not drain lazy sources) and reads nothing this loop writes.
  PageId* const submit_page = submit_page_.data();
  sim::SimTime* const submit_at = submit_at_.data();
  std::uint32_t submits = 0;
  const auto flush = [&] {
    if (submits == 0) return;
    server_->SubmitRequestsAt(submit_page, submit_at, submits,
                              obs::kVirtualClientId);
    submitted_ += submits;
    submits = 0;
  };
  // Classify pass over the pre-drawn arrivals. Arrivals stay sequential
  // because warm re-fetches are order-dependent: an arrival can re-warm a
  // page a later arrival in the same drain then hits.
  const ArrivalRefill* batch = batch_;
  std::uint32_t i = cursor_;
  sim::SimTime at = next_at_;
  std::uint64_t processed = 0;
  std::uint64_t hits = 0;
  std::uint64_t filtered = 0;
  while (at <= horizon) {
    if (i == kArrivalBatch) {
      flush();
      batch = &RefillArrivals(at);
      i = 0;
    }
    const PageId page = batch->page[i];
    const auto s =
        static_cast<unsigned>(batch->steady[i / 64] >> (i % 64)) & 1U;
    ++i;
    const unsigned w = warm[page];
    const unsigned hit = s & w;
    const unsigned miss = hit ^ 1U;
    const unsigned pull =
        table != nullptr
            ? static_cast<unsigned>(table->ShouldPull(page, pos))
            : static_cast<unsigned>(
                  filter_.ShouldPull(server_->DistanceToNextPush(page)));
    hits += hit;
    filtered += miss & (pull ^ 1U);
    // Steady misses re-fetch: the page re-enters the represented warm
    // caches iff it belongs to the warm set. (warm ⊆ ideal always, so
    // OR-ing the re-fetch bit equals the oracle's assignment.)
    warm[page] = static_cast<std::uint8_t>(w | (miss & s & ideal[page]));
    submit_page[submits] = page;
    submit_at[submits] = at;
    submits += miss & pull;
    ++processed;
    at = batch->at[i];
  }
  flush();
  batch_ = batch;
  cursor_ = i;
  next_at_ = at;
  generated_ += processed;
  cache_hits_ += hits;
  filtered_ += filtered;
  prof.AddOps(processed);
  return processed;
}

void VirtualClient::OnEvent() {
  obs::PhaseScope prof(simulator_->phase_profiler(),
                       obs::Phase::kVcArrival);
  prof.AddOps(1);
  const PageId page = generator_.Next(rng_);
  ++generated_;
  // SteadyStatePerc coin: does this arrival come from a warmed-up client
  // (filter through the ideal cache) or a warming-up one (always a miss)?
  const bool steady = rng_.NextBernoulli(options_.steady_state_perc);
  if (steady && warm_cached_[page]) {
    ++cache_hits_;
  } else if (!filter_.ShouldPull(server_->DistanceToNextPush(page))) {
    ++filtered_;
    if (steady) warm_cached_[page] = ideal_warm_[page];  // Re-fetched.
  } else {
    server_->SubmitRequestAt(page, obs::kVirtualClientId, simulator_->Now());
    ++submitted_;
    if (steady) warm_cached_[page] = ideal_warm_[page];  // Re-fetched.
  }
  wakeup_ = simulator_->ScheduleAfter(rng_.NextExponential(think_mean_),
                                      this);
}

}  // namespace bdisk::client
