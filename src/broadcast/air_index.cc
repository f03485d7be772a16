#include "broadcast/air_index.h"

#include <algorithm>
#include <cmath>

#include "sim/check.h"

namespace bdisk::broadcast {

namespace {

void CheckConfig(const AirIndexConfig& config) {
  BDISK_CHECK_MSG(config.data_slots >= 1, "need at least one data slot");
  BDISK_CHECK_MSG(config.index_slots >= 1, "need at least one index slot");
  BDISK_CHECK_MSG(config.m >= 1, "need at least one index segment");
  BDISK_CHECK_MSG(config.m <= config.data_slots,
                  "more index segments than data slots");
}

}  // namespace

double IndexedCycleLength(const AirIndexConfig& config) {
  CheckConfig(config);
  return static_cast<double>(config.data_slots) +
         static_cast<double>(config.m) *
             static_cast<double>(config.index_slots);
}

double ExpectedLatency(const AirIndexConfig& config) {
  CheckConfig(config);
  const double cycle = IndexedCycleLength(config);
  const double to_index = cycle / (2.0 * static_cast<double>(config.m));
  const double read_index = static_cast<double>(config.index_slots);
  const double doze_to_page = cycle / 2.0;
  return to_index + read_index + doze_to_page + 1.0;
}

double ExpectedTuningTime(const AirIndexConfig& config) {
  CheckConfig(config);
  // Initial probe slot + the index segment + the page itself. Constant in
  // m: more frequent indexes trim latency, not energy.
  return 1.0 + static_cast<double>(config.index_slots) + 1.0;
}

double UnindexedLatency(std::uint32_t data_slots) {
  BDISK_CHECK_MSG(data_slots >= 1, "need at least one data slot");
  return static_cast<double>(data_slots) / 2.0 + 1.0;
}

double UnindexedTuningTime(std::uint32_t data_slots) {
  return UnindexedLatency(data_slots);  // Awake the whole wait.
}

std::uint32_t OptimalIndexFrequency(std::uint32_t data_slots,
                                    std::uint32_t index_slots) {
  BDISK_CHECK_MSG(data_slots >= 1 && index_slots >= 1, "bad index shape");
  const double ideal = std::sqrt(static_cast<double>(data_slots) /
                                 static_cast<double>(index_slots));
  const auto m = static_cast<std::uint32_t>(std::llround(ideal));
  return std::clamp(m, 1U, data_slots);
}

}  // namespace bdisk::broadcast
