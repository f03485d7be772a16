#ifndef BDISK_TESTS_ORACLES_H_
#define BDISK_TESTS_ORACLES_H_

// Reference computations and test doubles that only tests use: each is the
// plain, obviously-correct form of something production code does faster
// or reads through another path.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broadcast/broadcast_program.h"
#include "obs/frame_sink.h"
#include "obs/trace_sink.h"
#include "sim/rng.h"
#include "workload/access_pattern.h"

namespace bdisk::sim {

/// A generator seeded like Rng(seed) but moved to the state whose
/// `index`-th word (zero-based, counting every Next() from here) is
/// `word` — a crafted stream for exercising draws that almost never occur
/// naturally, such as a bucket word Rng::NextBounded rejects. xoshiro256++
/// emits rotl(s0 + s3, 23) + s0, so s3 is solved for the word, and the
/// linear state step is inverted `index` times.
Rng RngWithWordAt(std::uint64_t seed, std::uint64_t index,
                  std::uint64_t word);

}  // namespace bdisk::sim

namespace bdisk::broadcast {

/// `program` as the shared immutable program BroadcastServer takes.
std::shared_ptr<const BroadcastProgram> Share(BroadcastProgram program);

/// Number of slots from position `pos` (inclusive) until `page` is next
/// broadcast: 0 means slot `pos` itself carries the page. Returns
/// kNeverBroadcast for pages not on the schedule. The oracle for
/// ScheduleCursor, DistanceSnapshot and CycleSpanTable.
std::uint32_t DistanceToNext(const BroadcastProgram& program,
                             std::uint32_t pos, PageId page);

}  // namespace bdisk::broadcast

namespace bdisk::workload {

/// Fraction of positions where `perm` differs from identity — how much
/// disagreement a noise permutation induces.
double PermutationDisplacement(const std::vector<std::uint32_t>& perm);

/// Page ids sorted hottest-first under `pattern` (ties: lower id).
std::vector<PageId> RankedPages(const AccessPattern& pattern);

}  // namespace bdisk::workload

namespace bdisk::obs {

/// Records of `event` that `sink` retains.
std::uint64_t CountOf(const TraceSink& sink, SpanEvent event);

/// In-memory sink: records every accepted frame and can be told to refuse
/// specific write attempts, to exercise the bus's carry-forward path.
class CaptureFrameSink : public FrameSink {
 public:
  bool Write(const std::string& frame) override;
  std::string Describe() const override { return "<capture>"; }
  std::uint64_t Dropped() const override { return dropped_; }

  /// Refuse exactly the zero-based attempt indices in `indices` (attempts
  /// are counted across accepts and refusals).
  void FailAt(std::vector<std::uint64_t> indices) {
    fail_at_ = std::move(indices);
  }

  const std::vector<std::string>& frames() const { return frames_; }
  std::uint64_t Attempts() const { return attempts_; }

 private:
  std::vector<std::string> frames_;
  std::vector<std::uint64_t> fail_at_;
  std::uint64_t attempts_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace bdisk::obs

#endif  // BDISK_TESTS_ORACLES_H_
