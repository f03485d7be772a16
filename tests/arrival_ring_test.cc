// The virtual client's arrival producer (client::ArrivalRing): a producer
// thread's refills are the inline fill's bytes, the thread shuts down
// cleanly from any state, it starts only on a CPU it can claim
// (sim/cpu_budget.h), and a run's trajectory does not depend on whether it
// ran.

#include "client/arrival_ring.h"

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client/virtual_client.h"
#include "core/experiment.h"
#include "core/system.h"
#include "obs/trace_sink.h"
#include "oracles.h"
#include "sim/alias_sampler.h"
#include "sim/cpu_budget.h"
#include "sim/simulator.h"
#include "sim/zipf.h"

namespace bdisk::client {
namespace {

using sim::kRefillArrivals;

// The first refill index at which `a` and `b` differ in a page, a coin
// mask or the bits of a time, or -1.
int FirstMismatch(const ArrivalRefill& a, const ArrivalRefill& b) {
  for (std::uint32_t i = 0; i < kRefillArrivals; ++i) {
    if (a.page[i] != b.page[i]) return static_cast<int>(i);
  }
  for (std::uint32_t j = 0; j < a.steady.size(); ++j) {
    if (a.steady[j] != b.steady[j]) return static_cast<int>(64 * j);
  }
  for (std::uint32_t i = 0; i <= kRefillArrivals; ++i) {
    if (std::bit_cast<std::uint64_t>(a.at[i]) !=
        std::bit_cast<std::uint64_t>(b.at[i])) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(ArrivalProducerTest, ProducerRefillsEqualInlineFills) {
  if (sim::AllowedCpus() < 2) GTEST_SKIP() << "no CPU to spare";
  const sim::AliasSampler zipf(sim::ZipfPmf(1000, 0.95));
  constexpr int kRefills = 1200;
  for (const double steady : {0.0, 0.95, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "steady " << steady);
    // A 0 bucket word, which Rng::NextBounded rejects at 1000 pages, at
    // arrival 7 of refill 500: the lanes decline that refill, so the
    // producer draws it with the plain loop.
    const std::uint64_t words = steady > 0.0 && steady < 1.0 ? 4 : 3;
    const sim::Rng crafted =
        sim::RngWithWordAt(23, words * (500 * kRefillArrivals + 7), 0);
    const ArrivalModel model{&zipf, steady, 0.08};

    sim::Rng produced_rng = crafted;
    ArrivalRing produced(&produced_rng, model);
    sim::Rng inline_rng = crafted;
    ArrivalRing inlined(&inline_rng, model);
    const ArrivalRefill* b = nullptr;
    {
      // The claim count is full while `inlined` decides.
      const sim::CpuClaims exhausted(sim::AllowedCpus());
      b = &inlined.Next(1.5);
    }
    const ArrivalRefill* a = &produced.Next(1.5);
    ASSERT_TRUE(produced.ProducerRuns());
    ASSERT_FALSE(inlined.ProducerRuns());
    for (int refill = 0; refill < kRefills; ++refill) {
      if (refill > 0) {
        a = &produced.Next(a->at[kRefillArrivals]);
        b = &inlined.Next(b->at[kRefillArrivals]);
      }
      ASSERT_EQ(FirstMismatch(*a, *b), -1) << "refill " << refill;
    }
  }
}

// A simulator and server for a VC that refills often.
struct VcRig {
  VcRig()
      : server(&sim,
               broadcast::Share(broadcast::BroadcastProgram({0, 1, 2, 3}, 4)),
               0.5, 10, sim::Rng(1)) {}

  std::unique_ptr<VirtualClient> MakeVc() {
    VirtualClientOptions options;
    options.think_time_ratio = 2000.0;  // 100 arrivals per unit.
    options.steady_state_perc = 0.95;
    options.cache_size = 2;
    return std::make_unique<VirtualClient>(
        &sim, &server, workload::AccessPattern(sim::ZipfPmf(4, 0.95)),
        std::vector<PageId>{0, 1}, options, sim::Rng(2));
  }

  sim::Simulator sim;
  server::BroadcastServer server;
};

TEST(ArrivalProducerTest, DestroyedWhileParkedOnAFullRing) {
  if (sim::AllowedCpus() < 2) GTEST_SKIP() << "no CPU to spare";
  VcRig rig;
  std::unique_ptr<VirtualClient> vc = rig.MakeVc();
  vc->Start();
  // 10 units at 100 arrivals each: a few refills, so the producer starts
  // and then fills the ring far ahead of the simulated clock.
  rig.sim.RunUntil(10.0);
  const ArrivalRing& ring = vc->arrival_ring();
  ASSERT_TRUE(ring.ProducerRuns());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ring.ProducerParked() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(ring.ProducerParked());
  // Give the producer time to fall asleep on its doorbell.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  vc.reset();
  EXPECT_GT(rig.server.queue().SubmittedCount(), 0U);
}

TEST(ArrivalProducerTest, DestroyedBeforeItsFirstRefill) {
  const std::uint64_t started = ArrivalRing::ProducersStarted();
  VcRig rig;
  std::unique_ptr<VirtualClient> vc = rig.MakeVc();
  // Started, but its first arrival, which takes the first refill, is not
  // drained yet.
  vc->Start();
  EXPECT_EQ(vc->RequestsGenerated(), 0U);
  EXPECT_FALSE(vc->arrival_ring().ProducerRuns());
  vc.reset();
  EXPECT_EQ(ArrivalRing::ProducersStarted(), started);
}

// A loaded steady-state run: TTR 250 on a 100-page database.
core::SystemConfig LoadedConfig(std::uint64_t seed) {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.think_time_ratio = 250.0;
  config.seed = seed;
  return config;
}

core::SteadyStateProtocol ShortProtocol() {
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 100;
  protocol.min_measured_accesses = 500;
  protocol.max_measured_accesses = 1500;
  protocol.batch_size = 250;
  protocol.tolerance = 0.1;
  return protocol;
}

struct TracedRun {
  core::RunResult result;
  bool producer = false;
  std::uint64_t trace_digest = 0;  // FNV-1a of the trace's JSONL.
  std::uint64_t trace_records = 0;
};

TracedRun RunTraced(const core::SystemConfig& config) {
  core::System system(config);
  obs::TraceSink sink;
  system.AttachTrace(&sink);
  TracedRun run;
  run.result = system.RunSteadyState(ShortProtocol());
  run.producer = system.vc()->arrival_ring().ProducerRuns();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : sink.ToJsonl()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  run.trace_digest = h;
  run.trace_records = sink.TotalEvents();
  return run;
}

TEST(ArrivalProducerTest, ExhaustedClaimsRunInlineAndMatchAProducerRun) {
  const core::SystemConfig config = LoadedConfig(20261020);
  const TracedRun producer = RunTraced(config);
  EXPECT_EQ(producer.producer, sim::AllowedCpus() >= 2);
  const std::uint64_t started = ArrivalRing::ProducersStarted();
  TracedRun inlined;
  {
    const sim::CpuClaims exhausted(sim::AllowedCpus());
    inlined = RunTraced(config);
  }
  EXPECT_FALSE(inlined.producer);
  EXPECT_EQ(ArrivalRing::ProducersStarted(), started);

  const core::RunResult& a = producer.result;
  const core::RunResult& b = inlined.result;
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.response_stats.Variance(), b.response_stats.Variance());
  EXPECT_EQ(a.response_stats.Count(), b.response_stats.Count());
  EXPECT_EQ(a.response_p50, b.response_p50);
  EXPECT_EQ(a.response_p99, b.response_p99);
  EXPECT_EQ(a.mc_accesses, b.mc_accesses);
  EXPECT_EQ(a.mc_hit_rate, b.mc_hit_rate);
  EXPECT_EQ(a.mc_pulls_sent, b.mc_pulls_sent);
  EXPECT_EQ(a.vc_requests_generated, b.vc_requests_generated);
  EXPECT_EQ(a.vc_cache_hits, b.vc_cache_hits);
  EXPECT_EQ(a.vc_filtered, b.vc_filtered);
  EXPECT_EQ(a.vc_submitted, b.vc_submitted);
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_accepted, b.requests_accepted);
  EXPECT_EQ(a.requests_coalesced, b.requests_coalesced);
  EXPECT_EQ(a.requests_dropped, b.requests_dropped);
  EXPECT_EQ(a.queue_depth_high_water, b.queue_depth_high_water);
  EXPECT_EQ(a.push_slot_frac, b.push_slot_frac);
  EXPECT_EQ(a.pull_slot_frac, b.pull_slot_frac);
  EXPECT_EQ(a.idle_slot_frac, b.idle_slot_frac);
  EXPECT_EQ(a.sim_time_end, b.sim_time_end);
  EXPECT_EQ(a.kernel.events_executed, b.kernel.events_executed);
  EXPECT_EQ(a.kernel.lazy_arrivals_fused, b.kernel.lazy_arrivals_fused);
  EXPECT_GT(a.kernel.lazy_arrivals_fused, 10 * VirtualClient::kArrivalBatch);
  EXPECT_EQ(producer.trace_digest, inlined.trace_digest);
  EXPECT_EQ(producer.trace_records, inlined.trace_records);
}

TEST(ArrivalProducerTest, FullWidthSweepStartsNoProducer) {
  const int cpus = sim::AllowedCpus();
  std::vector<core::SweepPoint> points(static_cast<std::size_t>(cpus));
  for (int i = 0; i < cpus; ++i) {
    points[static_cast<std::size_t>(i)].config = LoadedConfig(100 + i);
  }
  std::uint64_t started = ArrivalRing::ProducersStarted();
  const std::vector<core::SweepOutcome> wide = core::RunSweep(
      points, ShortProtocol(), {}, static_cast<unsigned>(cpus));
  EXPECT_EQ(ArrivalRing::ProducersStarted(), started);

  // On the calling thread alone every point may start one, and the
  // results are the same.
  started = ArrivalRing::ProducersStarted();
  const std::vector<core::SweepOutcome> narrow =
      core::RunSweep(points, ShortProtocol(), {}, 1);
  EXPECT_EQ(ArrivalRing::ProducersStarted() - started,
            cpus >= 2 ? points.size() : 0U);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(wide[i].result.mean_response, narrow[i].result.mean_response);
    EXPECT_EQ(wide[i].result.vc_submitted, narrow[i].result.vc_submitted);
    EXPECT_EQ(wide[i].result.sim_time_end, narrow[i].result.sim_time_end);
  }
}

}  // namespace
}  // namespace bdisk::client
