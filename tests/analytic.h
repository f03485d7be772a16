#ifndef BDISK_TESTS_ANALYTIC_H_
#define BDISK_TESTS_ANALYTIC_H_

#include <vector>

#include "broadcast/broadcast_program.h"

namespace bdisk::core {

/// Closed-form expectations used to validate the simulator (tests compare
/// simulated Pure-Push response times against these within a tolerance).

/// Expected response time, in broadcast units, of a cache-less client
/// reading only from the periodic broadcast: sum over pages of
/// p(page) * (L / (2 * freq(page)) + 1), where the +1 is the transmission
/// slot. Assumes each page's occurrences are evenly spaced (true up to
/// chunk-size rounding for programs built by BuildSchedule). All pages with
/// non-zero probability must be scheduled.
double ExpectedPushResponse(const broadcast::BroadcastProgram& program,
                            const std::vector<double>& probs);

/// Same, but accesses to pages in `resident` (the warmed cache contents)
/// cost 0 — the steady-state expectation for a push-only client.
double ExpectedSteadyPushResponse(const broadcast::BroadcastProgram& program,
                                  const std::vector<double>& probs,
                                  const std::vector<bool>& resident);

}  // namespace bdisk::core

#endif  // BDISK_TESTS_ANALYTIC_H_
