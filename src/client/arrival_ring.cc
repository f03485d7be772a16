#include "client/arrival_ring.h"

#include <immintrin.h>

#include <span>

#include "sim/check.h"
#include "sim/cpu_budget.h"
#include "sim/log1p_batch.h"

namespace bdisk::client {

namespace {

// A consumer that finds the next refill unpublished spins this many pauses
// (~35 us on a Xeon where a pause takes 18 ns) before it sleeps, which
// covers a producer still waking from its doorbell. In an 8 s perfbench
// sim_saturated run 0.7% of 1.7 M refills waited and 0.03% slept.
constexpr int kConsumerSpins = 2048;

}  // namespace

std::atomic<std::uint64_t> ArrivalRing::producers_started_{0};

void FillRefill(sim::Rng& rng, const ArrivalModel& model, sim::SimTime start,
                ArrivalRefill* out) {
  out->at[0] = start;
  sim::DrawArrivals(rng, *model.sampler, model.steady_perc,
                    {out->page.data(), out->steady.data(),
                     out->at.data() + 1});
  const std::span<double> thinks(out->at.data() + 1, sim::kRefillArrivals);
  sim::Log1pInPlace(thinks);
  // Rng::NextExponential's arithmetic, one rounding per step.
  const double mean = model.think_mean;
  sim::SimTime t = start;
  for (double& slot : thinks) {
    const double think = -mean * slot;
    t = t + think;
    slot = t;
  }
}

ArrivalRing::ArrivalRing(const sim::Rng* source, const ArrivalModel& model)
    : source_(source), model_(model), rng_(*source) {}

ArrivalRing::~ArrivalRing() {
  if (!producer_.joinable()) return;
  // A producer parked on a full ring sleeps until its doorbell changes; one
  // that is drawing sees the flag before it takes another slot.
  stop_.store(1, std::memory_order_seq_cst);
  doorbell_.fetch_add(1, std::memory_order_seq_cst);
  doorbell_.notify_one();
  producer_.join();
  sim::ReleaseCpuClaims(1);
}

const ArrivalRefill& ArrivalRing::Next(sim::SimTime start) {
  if (slots_ == nullptr) Begin(start);
  if (!producer_.joinable()) {
    FillRefill(rng_, model_, start, &slots_[0]);
    return slots_[0];
  }
  // Release the held refill. A parked producer sleeps on a full ring
  // (published_ == held_ + kSlots - 1 before this release); wake it once
  // half the ring is free, so it draws several refills per wake and a
  // refill normally costs no futex call.
  ++held_;
  released_.store(held_, std::memory_order_seq_cst);
  if (producer_parked_.load(std::memory_order_seq_cst) != 0 &&
      published_.load(std::memory_order_relaxed) - held_ ==
          kSlots - 1 - kSlots / 2) {
    doorbell_.fetch_add(1, std::memory_order_seq_cst);
    doorbell_.notify_one();
  }
  if (published_.load(std::memory_order_acquire) + 1 == held_) {
    AwaitPublished();
  }
  const ArrivalRefill& next = slots_[held_ % kSlots];
  BDISK_DCHECK(next.at[0] == start);
  return next;
}

void ArrivalRing::Begin(sim::SimTime start) {
  // The generator as the VC left it after drawing the first think time.
  rng_ = *source_;
  if (!sim::TryClaimSpareCpu()) {
    slots_ = std::make_unique<ArrivalRefill[]>(1);
    return;
  }
  slots_ = std::make_unique<ArrivalRefill[]>(kSlots);
  // The once-per-process log1p probe allocates. Run it here, where a throw
  // reaches the caller, so that nothing on the producer's path throws.
  sim::Log1pKernelActive();
  try {
    producer_ = std::thread(&ArrivalRing::Produce, this, start);
  } catch (...) {
    // No thread: every refill fills inline, in slots_[0].
    sim::ReleaseCpuClaims(1);
    return;
  }
  producers_started_.fetch_add(1, std::memory_order_relaxed);
}

void ArrivalRing::AwaitPublished() {
  for (int spin = 0; spin < kConsumerSpins; ++spin) {
    _mm_pause();
    if (published_.load(std::memory_order_acquire) + 1 != held_) return;
  }
  // Sleep until the producer publishes refill held_: it reads the flag
  // after each publish, and the flag is set before published_ is read
  // again, so one of the two sees the other.
  consumer_parked_.store(1, std::memory_order_seq_cst);
  for (;;) {
    const std::uint32_t published =
        published_.load(std::memory_order_seq_cst);
    if (published + 1 != held_) break;
    published_.wait(published, std::memory_order_acquire);
  }
  consumer_parked_.store(0, std::memory_order_relaxed);
}

void ArrivalRing::Produce(sim::SimTime start) {
  sim::SimTime t = start;
  for (std::uint32_t n = 1;; ++n) {
    // Slot n % kSlots is free once the consumer holds refill
    // n - kSlots + 1 or a later one.
    while (n - released_.load(std::memory_order_acquire) >= kSlots) {
      const std::uint32_t bell = doorbell_.load(std::memory_order_seq_cst);
      producer_parked_.store(1, std::memory_order_seq_cst);
      if (stop_.load(std::memory_order_seq_cst) != 0) return;
      if (n - released_.load(std::memory_order_seq_cst) >= kSlots) {
        doorbell_.wait(bell, std::memory_order_seq_cst);
      }
      producer_parked_.store(0, std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_acquire) != 0) return;
    ArrivalRefill& slot = slots_[n % kSlots];
    FillRefill(rng_, model_, t, &slot);
    t = slot.at[sim::kRefillArrivals];
    published_.store(n, std::memory_order_seq_cst);
    if (consumer_parked_.load(std::memory_order_seq_cst) != 0) {
      published_.notify_one();
    }
  }
}

}  // namespace bdisk::client
