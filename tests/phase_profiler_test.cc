// PhaseProfiler unit tests: frame stack discipline (sampling, forcing,
// depth overflow), ops attribution, the scaled exports, and the prof.*
// metrics / folded / Chrome-trace serializations.

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
  // server.slot samples 1-in-128 ((calls & 127) == 0): of 256 top-level
  // calls, exactly the 128th and 256th are timed.
  for (int i = 0; i < 256; ++i) {
    ExitFrame(profiler, profiler.Enter(Phase::kServerSlot));
  }
  EXPECT_EQ(profiler.Calls(Phase::kServerSlot), 256U);
  EXPECT_EQ(profiler.TimedCalls(Phase::kServerSlot), 2U);
  EXPECT_EQ(profiler.OpenDepth(), 0);
}

TEST(PhaseProfilerTest, TimedParentForcesChildrenButRunDoesNot) {
  PhaseProfiler profiler;
  // run is always timed but must not force its children (it would defeat
  // sampling for the whole run).
  const bool run = profiler.Enter(Phase::kRun);
  EXPECT_TRUE(run);
  ExitFrame(profiler, profiler.Enter(Phase::kServerSlot));  // (1&127)!=0.
  ExitFrame(profiler, run);
  EXPECT_EQ(profiler.TimedCalls(Phase::kRun), 1U);
  EXPECT_EQ(profiler.TimedCalls(Phase::kServerSlot), 0U);

  // A timed non-run parent forces every child, so its subtree is
  // complete. server.queue's own stride (1-in-256) never fires in 128
  // calls, so its one timed call can only come from forcing.
  for (int i = 0; i < 128; ++i) {
    const bool span = profiler.Enter(Phase::kKernelSpan);  // 128th timed.
    const bool queue = profiler.Enter(Phase::kServerQueue);
    ExitFrame(profiler, queue);
    ExitFrame(profiler, span);
  }
  EXPECT_EQ(profiler.TimedCalls(Phase::kKernelSpan), 1U);
  EXPECT_EQ(profiler.TimedCalls(Phase::kServerQueue), 1U);
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
  for (int i = 0; i < 128; ++i) {
    const bool span = profiler.Enter(Phase::kKernelSpan);  // 128th timed.
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
