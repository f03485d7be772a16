#ifndef BDISK_ANALYSIS_PUBLICATION_SPLIT_H_
#define BDISK_ANALYSIS_PUBLICATION_SPLIT_H_

#include <cstdint>
#include <vector>

namespace bdisk::analysis {

/// The Imielinski–Viswanathan baseline ([Imie94c, Vish94], §5 of the
/// paper): split the database into a *publication group* (the n hottest
/// pages, broadcast on a flat cycle) and an *on-demand group* (the rest,
/// served only over the backchannel), choosing n to minimize uplink
/// requests subject to a response-time bound.
///
/// Model, adapted to our slotted channel (documented differences from
/// [Imie94c]: they assume an infinite M/M/1 queue and a shared
/// symmetric medium; we keep the M/M/1 queue — matching their analysis —
/// on our asymmetric channel where each response preempts one broadcast
/// slot):
///
///   * lambda(n) = request_rate x (probability mass of the on-demand
///     group). Stability requires lambda < 1 (responses are 1 slot each).
///   * On-demand response: M/M/1 with mu = 1 -> W = 1 / (1 - lambda).
///   * Published response: the flat cycle of n pages is slowed by the
///     pull traffic: T = n / (1 - lambda); expected wait T/2 + 1.
///   * Expected response = mass-weighted mix. No client caches (the
///     [Imie94c] model has none — a key difference from Broadcast Disks
///     the paper's §5 discusses).
struct SplitEvaluation {
  std::uint32_t publication_size = 0;  // n.
  double on_demand_mass = 0.0;         // Access probability served by pull.
  double uplink_rate = 0.0;            // lambda(n), requests per slot.
  double expected_response = 0.0;      // Broadcast units.
  bool stable = false;                 // lambda < 1.
};

/// Result of the optimization sweep.
struct SplitResult {
  /// Minimum-uplink split meeting the bound; publication_size ==
  /// probs.size()+1 (impossible value) when no split is feasible —
  /// check `feasible`.
  SplitEvaluation best;
  bool feasible = false;
  /// Every evaluated split, n = 0..N (for tables/plots).
  std::vector<SplitEvaluation> all;
};

/// Scans n = 0..N and returns the split minimizing uplink_rate among
/// stable splits whose expected response is <= `response_bound` —
/// [Imie94c]'s objective. `probs` must be sorted-agnostic (pages are
/// ranked internally, hottest published first); `request_rate` is the
/// aggregate client request rate per broadcast unit.
SplitResult OptimizePublicationSplit(const std::vector<double>& probs,
                                     double request_rate,
                                     double response_bound);

}  // namespace bdisk::analysis

#endif  // BDISK_ANALYSIS_PUBLICATION_SPLIT_H_
