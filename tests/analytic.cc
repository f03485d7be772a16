#include "analytic.h"

#include "sim/check.h"

namespace bdisk::core {

namespace {

double ExpectedWaitFor(const broadcast::BroadcastProgram& program,
                       broadcast::PageId page) {
  const std::uint32_t freq = program.Frequency(page);
  BDISK_CHECK_MSG(freq > 0, "page with access probability is not scheduled");
  return static_cast<double>(program.Length()) /
             (2.0 * static_cast<double>(freq)) +
         1.0;  // +1: the transmission slot itself.
}

}  // namespace

double ExpectedPushResponse(const broadcast::BroadcastProgram& program,
                            const std::vector<double>& probs) {
  BDISK_CHECK_MSG(probs.size() == program.DbSize(),
                  "probability vector must cover the database");
  double expected = 0.0;
  for (std::size_t p = 0; p < probs.size(); ++p) {
    if (probs[p] == 0.0) continue;
    expected +=
        probs[p] * ExpectedWaitFor(program, static_cast<broadcast::PageId>(p));
  }
  return expected;
}

double ExpectedSteadyPushResponse(const broadcast::BroadcastProgram& program,
                                  const std::vector<double>& probs,
                                  const std::vector<bool>& resident) {
  BDISK_CHECK_MSG(probs.size() == program.DbSize(),
                  "probability vector must cover the database");
  BDISK_CHECK_MSG(resident.size() == probs.size(),
                  "residency vector must cover the database");
  double expected = 0.0;
  for (std::size_t p = 0; p < probs.size(); ++p) {
    if (probs[p] == 0.0 || resident[p]) continue;
    expected +=
        probs[p] * ExpectedWaitFor(program, static_cast<broadcast::PageId>(p));
  }
  return expected;
}

}  // namespace bdisk::core
