// PhaseProfiler unit tests: frame stack discipline (sampling, forcing,
// depth overflow), ops attribution, the scaled exports, and the prof.*
// metrics / folded / Chrome-trace serializations.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/span_assembler.h"

namespace bdisk::obs {
namespace {

// Closes a frame with the flag Enter returned — what PhaseScope does.
// An untimed frame has no state to unwind, so only timed frames exit.
void ExitFrame(PhaseProfiler& profiler, bool timed) {
  if (timed) profiler.ExitTimed();
}

TEST(PhaseProfilerTest, CountsEveryCallButTimesOnlySampled) {
  PhaseProfiler profiler;
  // server.slot samples with a mean stride of 128: each sampled call
  // re-arms a countdown uniform on [1, 255], so of 128,000 top-level calls
  // about 1,000 are timed and no two timed calls are more than 255 apart.
  constexpr int kCalls = 128 * 1000;
  int since_timed = 0;
  int longest_gap = 0;
  for (int i = 0; i < kCalls; ++i) {
    const bool timed = profiler.Enter(Phase::kServerSlot);
    ++since_timed;
    if (timed) {
      longest_gap = std::max(longest_gap, since_timed);
      since_timed = 0;
    }
    ExitFrame(profiler, timed);
  }
  EXPECT_EQ(profiler.Calls(Phase::kServerSlot),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_GT(profiler.TimedCalls(Phase::kServerSlot), 900U);
  EXPECT_LT(profiler.TimedCalls(Phase::kServerSlot), 1100U);
  EXPECT_LE(longest_gap, 255);
  EXPECT_EQ(profiler.OpenDepth(), 0);
}

TEST(PhaseProfilerTest, TimedParentForcesChildrenButRunDoesNot) {
  PhaseProfiler profiler;
  // run is always timed but must not force its children (it would defeat
  // sampling for the whole run): under it server.slot keeps sampling.
  const bool run = profiler.Enter(Phase::kRun);
  EXPECT_TRUE(run);
  for (int i = 0; i < 1280; ++i) {
    ExitFrame(profiler, profiler.Enter(Phase::kServerSlot));
  }
  ExitFrame(profiler, run);
  EXPECT_EQ(profiler.TimedCalls(Phase::kRun), 1U);
  EXPECT_LT(profiler.TimedCalls(Phase::kServerSlot), 30U);

  // A timed non-run parent forces every child, so its subtree is
  // complete: every timed span times its server.queue child, and a
  // forced child leaves its own countdown alone.
  int spans_timed = 0;
  for (int i = 0; i < 1280; ++i) {
    const bool span = profiler.Enter(Phase::kKernelSpan);
    const bool queue = profiler.Enter(Phase::kServerQueue);
    if (span) {
      EXPECT_TRUE(queue) << "call " << i;
      ++spans_timed;
    }
    ExitFrame(profiler, queue);
    ExitFrame(profiler, span);
  }
  EXPECT_GT(spans_timed, 0);
  EXPECT_EQ(profiler.TimedCalls(Phase::kKernelSpan),
            static_cast<std::uint64_t>(spans_timed));
  EXPECT_GE(profiler.TimedCalls(Phase::kServerQueue),
            static_cast<std::uint64_t>(spans_timed));
}

TEST(PhaseProfilerTest, PeriodicCostlyCallsDoNotAliasTheSampling) {
  // Every 128th server.mux call spins for 20 us and the rest are empty —
  // the shape of a slot loop whose metrics sample or window close lands
  // on every 128th slot. A fixed stride of 128 times every costly call
  // and none of the others, and scales each up 128-fold; the randomized
  // countdown samples every call position alike, so about one timed call
  // in 128 is costly and the estimate stays near the costly calls' own
  // time. A preemption inside a sampled frame is scaled up by the stride
  // too, so the best of three trials is judged.
  constexpr int kPeriod = 128;
  constexpr int kCalls = kPeriod * 4096;
  const auto spin = std::chrono::microseconds(20);
  double best_ratio = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    PhaseProfiler profiler;
    double costly_ns = 0.0;
    std::uint64_t timed_costly = 0;
    for (int i = 1; i <= kCalls; ++i) {
      const bool timed = profiler.Enter(Phase::kServerMux);
      if (i % kPeriod == 0) {
        timed_costly += timed ? 1 : 0;
        const auto t0 = std::chrono::steady_clock::now();
        auto t1 = t0;
        while (t1 - t0 < spin) t1 = std::chrono::steady_clock::now();
        costly_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      }
      ExitFrame(profiler, timed);
    }
    // Expected 4096 / 128 = 32 timed costly calls; a fixed stride times
    // all 4096.
    EXPECT_GT(timed_costly, 8U);
    EXPECT_LT(timed_costly, 128U);
    profiler.Finalize();
    const double ratio = profiler.EstTotalNs(Phase::kServerMux) / costly_ns;
    if (trial == 0 || std::abs(std::log(ratio)) <
                          std::abs(std::log(best_ratio))) {
      best_ratio = ratio;
    }
  }
  EXPECT_GT(best_ratio, 0.5);
  EXPECT_LT(best_ratio, 2.0);
}

TEST(PhaseProfilerTest, OpsAccumulateOnTheOwningScope) {
  PhaseProfiler profiler;
  {
    PhaseScope drain(&profiler, Phase::kDrain);
    drain.AddOps(10);
    {
      PhaseScope vc(&profiler, Phase::kVcArrival);
      vc.AddOps(7);
    }
    drain.AddOps(5);
  }
  EXPECT_EQ(profiler.Ops(Phase::kDrain), 15U);
  EXPECT_EQ(profiler.Ops(Phase::kVcArrival), 7U);
}

TEST(PhaseProfilerTest, DepthOverflowSkipsFramesButStaysBalanced) {
  PhaseProfiler profiler;
  // Only timed frames occupy stack slots; run (mask 0) wants one at every
  // nesting level, so past kMaxDepth = 16 the rest degrade to untimed and
  // the overflow counter records them.
  constexpr int kDeep = 40;
  std::vector<bool> timed;
  for (int i = 0; i < kDeep; ++i) timed.push_back(profiler.Enter(Phase::kRun));
  EXPECT_GT(profiler.DepthOverflow(), 0U);
  for (int i = kDeep; i-- > 0;) ExitFrame(profiler, timed[i]);
  EXPECT_EQ(profiler.OpenDepth(), 0);
  EXPECT_EQ(profiler.Calls(Phase::kRun), static_cast<std::uint64_t>(kDeep));
  EXPECT_EQ(profiler.TimedCalls(Phase::kRun), 16U);
}

TEST(PhaseProfilerTest, EstimatesScaleSampledTicksToAllCalls) {
  PhaseProfiler profiler;
  const bool run = profiler.Enter(Phase::kRun);
  for (int i = 0; i < 256; ++i) {
    ExitFrame(profiler, profiler.Enter(Phase::kMcRequest));  // Mask 0.
  }
  ExitFrame(profiler, run);
  profiler.Finalize();
  EXPECT_GT(profiler.NsPerTick(), 0.0);
  // Every call timed, so scaling is 1:1; a leaf's total bounds its self.
  EXPECT_EQ(profiler.TimedCalls(Phase::kMcRequest), 256U);
  EXPECT_GT(profiler.EstTotalNs(Phase::kMcRequest), 0.0);
  EXPECT_GE(profiler.EstTotalNs(Phase::kMcRequest),
            profiler.EstSelfNs(Phase::kMcRequest));
}

TEST(PhaseProfilerTest, MergeIntoPublishesProfMetrics) {
  PhaseProfiler profiler;
  const bool run = profiler.Enter(Phase::kRun);
  ExitFrame(profiler, profiler.Enter(Phase::kMcRequest));
  ExitFrame(profiler, run);
  MetricsRegistry registry;
  profiler.MergeInto(&registry);
  EXPECT_EQ(registry.GetCounter("prof.run.calls")->Value(), 1U);
  EXPECT_EQ(registry.GetCounter("prof.mc.request.calls")->Value(), 1U);
  EXPECT_GT(registry.GetGauge("prof.ns_per_tick")->Value(), 0.0);
  // Each touched phase has its five rows; untouched phases stay out.
  const std::string json = registry.ToJson();
  for (const char* phase : {"run", "mc.request"}) {
    for (const char* row : {"calls", "ops", "total_ns", "self_ns",
                            "ns_per_op"}) {
      const std::string name =
          std::string("\"prof.") + phase + "." + row + "\"";
      EXPECT_NE(json.find(name), std::string::npos) << name;
    }
  }
  EXPECT_EQ(json.find("prof.fault.judge"), std::string::npos);
}

TEST(PhaseProfilerTest, FoldedStacksCarryFullPaths) {
  PhaseProfiler profiler;
  const bool run = profiler.Enter(Phase::kRun);
  // No countdown exceeds 255 calls, so at least one span is timed.
  for (int i = 0; i < 256; ++i) {
    const bool span = profiler.Enter(Phase::kKernelSpan);
    const bool slot = profiler.Enter(Phase::kServerSlot);  // Forced then.
    ExitFrame(profiler, slot);
    ExitFrame(profiler, span);
  }
  ExitFrame(profiler, run);
  const std::string folded = profiler.ToFolded();
  EXPECT_NE(folded.find("run;kernel.span;server.slot "), std::string::npos)
      << folded;
  EXPECT_NE(folded.find("run "), std::string::npos) << folded;
}

TEST(PhaseProfilerTest, ChromeTraceParsesAndCarriesBothTracks) {
  PhaseProfiler profiler;
  const bool run = profiler.Enter(Phase::kRun);
  ExitFrame(profiler, profiler.Enter(Phase::kMcRequest));
  ExitFrame(profiler, run);

  RequestSpan span;
  span.client = 0;
  span.page = 7;
  span.outcome = SpanOutcome::kPullServed;
  span.request_time = 10.0;
  span.submit_time = 10.0;
  span.slot_time = 12.0;
  span.delivery_time = 13.0;
  span.response = 3.0;
  const std::vector<RequestSpan> spans = {span};

  const std::string doc = profiler.ToChromeTrace(&spans);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(doc, &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  bool saw_wall = false, saw_sim = false;
  for (const JsonValue& event : events->array) {
    const JsonValue* cat = event.Find("cat");
    if (cat == nullptr) continue;
    if (cat->string == "wall") saw_wall = true;
    if (cat->string == "sim") saw_sim = true;
  }
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_sim);
}

TEST(PhaseProfilerTest, SliceRingKeepsFirstNAndCountsTheRest) {
  PhaseProfiler profiler(/*slice_capacity=*/4);
  for (int i = 0; i < 16; ++i) {
    const bool run = profiler.Enter(Phase::kRun);  // Mask 0: always timed.
    ExitFrame(profiler, run);
  }
  EXPECT_EQ(profiler.SliceCount(), 4U);
  EXPECT_EQ(profiler.SlicesDropped(), 12U);
}

}  // namespace
}  // namespace bdisk::obs
