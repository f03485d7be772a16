#ifndef BDISK_SIM_LAZY_SOURCE_H_
#define BDISK_SIM_LAZY_SOURCE_H_

#include <cstdint>

#include "sim/types.h"

namespace bdisk::sim {

/// An open-loop event source drained in batch instead of scheduling one
/// heap event per occurrence (event fusion). A simulator holds at most one:
/// the model's one open-loop aggregate client.
///
/// A lazy source pre-draws the time of its next arrival and sits outside
/// the event heap. Whenever simulation state the source can affect is about
/// to be *observed* — a barrier — the simulator calls CatchUp(now), and the
/// source processes every arrival with timestamp <= now in timestamp order.
/// Between barriers no one can tell whether the arrivals have happened yet,
/// so deferring them is invisible: the fused run makes the identical RNG
/// draw sequence and identical side effects in the identical order as a
/// run that scheduled each arrival on the heap.
///
/// Eligibility contract (see DESIGN.md, "The lazy-source contract"):
///  - the source never blocks: each arrival's time depends only on the
///    source's own state, not on service or on other components;
///  - the source owns a private RNG stream;
///  - any mutable *external* state the source reads changes only at
///    barriers, so all arrivals in a drained batch observe the same value
///    of it — exactly what the heap interleaving would have shown them;
///  - everyone who reads state the source *writes* does so behind a
///    barrier.
class LazySource {
 public:
  virtual ~LazySource() = default;

  /// Processes every pending arrival with timestamp <= `horizon`, in
  /// timestamp order, and returns how many were processed.
  virtual std::uint64_t CatchUp(SimTime horizon) = 0;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_LAZY_SOURCE_H_
