// Ablation benches for design choices the paper asserts from its prior
// work rather than re-measuring:
//
//  1. Cache replacement policy. [Acha95a] showed probability-only and
//     recency-based replacement lose to cost-based PIX against a broadcast;
//     §3.1 simply adopts PIX (and P for Pure-Pull). We measure all four.
//  2. Offset. §3.2: "the best broadcast program is obtained by shifting
//     [the] CacheSize hottest pages to the slowest disk". We run with and
//     without the shift.
//  3. Chunking mode. [Acha95a]'s algorithm pads non-divisible chunks with
//     empty slots; our default splits chunks evenly instead (DESIGN.md).

#include <cstdio>

#include "core/table_printer.h"
#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner("Ablations",
                     "Cache policy, Offset, and chunking-mode ablations "
                     "(not a paper figure).");

  // ---------------------------------------------------- 1. Cache policy.
  {
    std::vector<core::SweepPoint> points;
    const std::vector<std::pair<const char*, cache::PolicyKind>> policies = {
        {"PIX", cache::PolicyKind::kPix},
        {"P", cache::PolicyKind::kP},
        {"LRU", cache::PolicyKind::kLru},
        {"LFU", cache::PolicyKind::kLfu},
    };
    for (const double ttr : {10.0, 50.0, 250.0}) {
      for (const auto& [name, kind] : policies) {
        core::SweepPoint point = bench::MakePoint(
            name, ttr, DeliveryMode::kIpp, ttr, 0.5, 0.25);
        point.config.mc_policy = kind;
        points.push_back(point);
      }
    }
    const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());
    std::printf("Ablation 1: MC cache replacement policy "
                "(IPP, PullBW=50%%, ThresPerc=25%%)\n");
    bench::PrintResponseTable("ThinkTimeRatio", outcomes);
    std::printf("Expected: PIX <= P < LRU/LFU — cost-based replacement keeps\n"
                "slow-disk pages cached and lets fast-disk pages stream.\n\n");
  }

  // --------------------------------------------------------- 2. Offset.
  {
    std::vector<core::SweepPoint> points;
    for (const double ttr : {10.0, 50.0, 250.0}) {
      for (const bool offset_on : {true, false}) {
        core::SweepPoint point = bench::MakePoint(
            offset_on ? "Offset" : "NoOffset", ttr, DeliveryMode::kPurePush,
            ttr);
        point.config.offset = offset_on ? 100U : 0U;
        points.push_back(point);
      }
    }
    const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());
    std::printf("Ablation 2: Offset on/off (Pure-Push)\n");
    bench::PrintResponseTable("ThinkTimeRatio", outcomes);
    std::printf("Expected: Offset wins in steady state — broadcasting the\n"
                "cache-resident pages often is wasted bandwidth.\n\n");
  }

  // ------------------------------------------------- 3. Chunking mode.
  {
    std::vector<core::SweepPoint> points;
    for (const double ttr : {10.0, 50.0, 250.0}) {
      for (const bool pad : {false, true}) {
        core::SweepPoint point = bench::MakePoint(
            pad ? "Pad" : "Balanced", ttr, DeliveryMode::kPurePush, ttr);
        point.config.chunking = pad ? broadcast::ChunkingMode::kPad
                                    : broadcast::ChunkingMode::kBalanced;
        points.push_back(point);
      }
    }
    const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());
    std::printf("Ablation 3: chunk padding ([Acha95a] literal) vs balanced "
                "split (Pure-Push)\n");
    bench::PrintResponseTable("ThinkTimeRatio", outcomes);
    std::printf("Expected: balanced is slightly better — padding wastes\n"
                "slots (1608- vs 1600-slot major cycle here).\n");
  }
  return 0;
}
