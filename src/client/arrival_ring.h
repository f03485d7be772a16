#ifndef BDISK_CLIENT_ARRIVAL_RING_H_
#define BDISK_CLIENT_ARRIVAL_RING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "broadcast/page.h"
#include "sim/alias_sampler.h"
#include "sim/arrival_lanes.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace bdisk::client {

/// One refill of the virtual client's pre-drawn arrivals, in arrival
/// order. Bit i % 64 of steady[i / 64] is arrival i's steady-state coin,
/// at[i] its time, and at[kRefillArrivals] the first arrival of the next
/// refill, whose page and coin are not drawn yet.
struct alignas(64) ArrivalRefill {
  std::array<broadcast::PageId, sim::kRefillArrivals> page;
  std::array<std::uint64_t, sim::kRefillArrivals / 64> steady;
  std::array<sim::SimTime, sim::kRefillArrivals + 1> at;
};

/// What the virtual client's arrivals are drawn from. The sampler is the
/// VC's, immutable once built.
struct ArrivalModel {
  const sim::AliasSampler* sampler;
  double steady_perc;  // SteadyStatePerc, in [0, 1].
  double think_mean;   // Mean of the exponential think time.
};

/// Draws the kRefillArrivals arrivals that follow one at `start` from
/// `rng`'s stream into `out`: sim::DrawArrivals, sim::Log1pInPlace on the
/// think uniforms, then Rng::NextExponential's arithmetic as a prefix sum,
/// one rounding per step. out->at[0] is `start`.
void FillRefill(sim::Rng& rng, const ArrivalModel& model, sim::SimTime start,
                ArrivalRefill* out);

/// The virtual client's arrivals, one refill at a time, drawn inline or
/// ahead of time by a producer thread on a spare CPU (DESIGN.md, "The
/// batched arrival spine").
///
/// The first Next() takes over the generator and decides, inside the run
/// rather than at construction. If sim::TryClaimSpareCpu() grants a CPU
/// and the thread starts, the producer owns the generator from then on and
/// keeps up to kSlots - 1
/// refills ahead of the one the consumer holds, parking on a full ring
/// until the consumer has freed half of it. It touches nothing but the
/// generator, the immutable alias tables and the ring. Otherwise every
/// Next() fills one refill inline, in place. Both ways run FillRefill on
/// the same stream, so the refills are the same bytes.
class ArrivalRing {
 public:
  static constexpr std::uint32_t kSlots = 8;

  /// Draws from `*source`, the VC's generator, which the first Next()
  /// copies: nothing may use it after that.
  ArrivalRing(const sim::Rng* source, const ArrivalModel& model);

  /// Stops and joins the producer, if one runs.
  ~ArrivalRing();

  ArrivalRing(const ArrivalRing&) = delete;
  ArrivalRing& operator=(const ArrivalRing&) = delete;

  /// Releases the refill Next() returned last and returns the one after
  /// it, whose first arrival is at `start`: the last refill's
  /// at[kRefillArrivals], or for the first refill the first arrival's
  /// time.
  const ArrivalRefill& Next(sim::SimTime start);

  /// Whether a producer thread fills this ring.
  bool ProducerRuns() const { return producer_.joinable(); }

  /// Whether the producer has parked on a full ring (and has not been
  /// woken since).
  bool ProducerParked() const {
    return producer_parked_.load(std::memory_order_acquire) != 0;
  }

  /// Producer threads started in this process so far.
  static std::uint64_t ProducersStarted() {
    return producers_started_.load(std::memory_order_relaxed);
  }

 private:
  void Begin(sim::SimTime start);
  void Produce(sim::SimTime start);
  void AwaitPublished();

  const sim::Rng* source_;
  ArrivalModel model_;
  // Null until the first Next(), then kSlots refills with a producer and
  // one without. With a producer, refill n lives in slots_[n % kSlots]:
  // the consumer holds refill 0, which is never drawn, until its first
  // Next(), and the producer fills 1, 2, ... The counters wrap.
  std::unique_ptr<ArrivalRefill[]> slots_;
  // Written by the drawing thread: the generator (from the first Next()
  // on), and with a producer the last refill it published and whether it
  // sleeps on a full ring.
  alignas(64) sim::Rng rng_;
  std::atomic<std::uint32_t> published_{0};
  std::atomic<std::uint32_t> producer_parked_{0};
  // Written by the consumer: the refill it holds (every earlier one is
  // free), whether it sleeps on an empty ring, the producer's doorbell
  // and the stop flag.
  alignas(64) std::uint32_t held_ = 0;
  std::atomic<std::uint32_t> released_{0};
  std::atomic<std::uint32_t> consumer_parked_{0};
  std::atomic<std::uint32_t> doorbell_{0};
  std::atomic<std::uint32_t> stop_{0};
  std::thread producer_;  // Last: it uses every member above.

  static std::atomic<std::uint64_t> producers_started_;
};

}  // namespace bdisk::client

#endif  // BDISK_CLIENT_ARRIVAL_RING_H_
