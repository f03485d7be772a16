#include "oracles.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/check.h"

namespace bdisk::sim {

Rng RngWithWordAt(std::uint64_t seed, std::uint64_t index,
                  std::uint64_t word) {
  const auto rotr = [](std::uint64_t x, int k) {
    return (x >> k) | (x << (64 - k));
  };
  Rng::State s = Rng(seed).state();
  s[3] = rotr(word - s[0], 23) - s[0];
  for (std::uint64_t step = 0; step < index; ++step) {
    // Inverse of Rng::Next's state step, which maps (a, b, c, d) to
    // (a^b^d, a^b^c, a^c^(b<<17), rotl(b^d, 45)).
    const std::uint64_t b_xor_d = rotr(s[3], 45);
    const std::uint64_t a = s[0] ^ b_xor_d;
    // s2 ^ s1 = b ^ (b << 17); unwind the shifted copies.
    std::uint64_t b = s[2] ^ s[1];
    b ^= b << 17;
    b ^= b << 34;
    const std::uint64_t c = s[1] ^ a ^ b;
    s[0] = a;
    s[1] = b;
    s[2] = c;
    s[3] = b_xor_d ^ b;
  }
  return Rng::FromState(s);
}

}  // namespace bdisk::sim

namespace bdisk::broadcast {

std::shared_ptr<const BroadcastProgram> Share(BroadcastProgram program) {
  return std::make_shared<const BroadcastProgram>(std::move(program));
}

std::uint32_t DistanceToNext(const BroadcastProgram& program,
                             std::uint32_t pos, PageId page) {
  BDISK_DCHECK(page < program.DbSize());
  const std::uint32_t* positions = program.OccPositionsData();
  const std::uint32_t* first = positions + program.OccOffsetsData()[page];
  const std::uint32_t* last = positions + program.OccOffsetsData()[page + 1];
  if (first == last) return BroadcastProgram::kNeverBroadcast;
  BDISK_DCHECK(pos < program.Length());
  // First occurrence at or after pos, else wrap to the first of the next
  // cycle.
  const std::uint32_t* it = std::lower_bound(first, last, pos);
  if (it != last) return *it - pos;
  return program.Length() - pos + *first;
}

}  // namespace bdisk::broadcast

namespace bdisk::workload {

double PermutationDisplacement(const std::vector<std::uint32_t>& perm) {
  if (perm.empty()) return 0.0;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != i) ++moved;
  }
  return static_cast<double>(moved) / static_cast<double>(perm.size());
}

std::vector<PageId> RankedPages(const AccessPattern& pattern) {
  std::vector<PageId> ranked(pattern.DbSize());
  std::iota(ranked.begin(), ranked.end(), 0U);
  std::stable_sort(ranked.begin(), ranked.end(), [&](PageId a, PageId b) {
    return pattern.Prob(a) > pattern.Prob(b);
  });
  return ranked;
}

}  // namespace bdisk::workload

namespace bdisk::obs {

std::uint64_t CountOf(const TraceSink& sink, SpanEvent event) {
  std::uint64_t count = 0;
  for (const SpanRecord& r : sink.Events()) count += r.event == event;
  return count;
}

bool CaptureFrameSink::Write(const std::string& frame) {
  const std::uint64_t index = attempts_++;
  if (std::find(fail_at_.begin(), fail_at_.end(), index) != fail_at_.end()) {
    ++dropped_;
    return false;
  }
  frames_.push_back(frame);
  return true;
}

}  // namespace bdisk::obs
