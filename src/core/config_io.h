#ifndef BDISK_CORE_CONFIG_IO_H_
#define BDISK_CORE_CONFIG_IO_H_

#include <string>
#include <utility>
#include <vector>

#include "core/config.h"

namespace bdisk::core {

/// Text serialization of SystemConfig for the CLI driver and experiment
/// scripts: simple `key = value` lines, `#` comments, blank lines ignored.
///
/// Recognized keys (values in parentheses):
///   mode (push|pull|ipp), server_db_size, disk_sizes (comma list),
///   disk_freqs (comma list), server_queue_size, pull_bw, thres_perc,
///   chop_count, offset, chunking (balanced|pad), zipf_theta, noise,
///   cache_size, mc_think_time, think_time_ratio, steady_state_perc,
///   vc_enabled (true|false), mc_retry_interval, mc_policy (pix|p|lru|lfu),
///   seed, update_rate, update_zipf_theta, mc_prefetch, adaptive_pull_bw,
///   adaptive_threshold, plus the fault-injection plan under a `fault.`
///   prefix (fault.slot_loss, fault.request_loss, fault.outage_start, ...;
///   the full key list and semantics are in ROBUSTNESS.md).

/// Applies one assignment to `config`. Returns an error description, or
/// empty on success. Unknown keys are errors. Numbers fail closed: a double
/// must be finite, an integer an unsigned decimal that fits its field, and
/// a rejected value leaves `config` untouched.
std::string ApplyConfigOption(const std::string& key,
                              const std::string& value, SystemConfig* config);

/// Parses a whole config text; stops at the first error. The returned
/// error includes the offending line number.
std::string ParseConfigText(const std::string& text, SystemConfig* config);

/// Every key ConfigToText can write, in its order, with the value as it
/// writes it. The list is the same for every config. An empty value is an
/// unset optional, which ConfigToText omits: mc_policy, update_zipf_theta,
/// flight_recorder and frames when unset, and flight_recorder_max_dumps
/// at its default of 1.
std::vector<std::pair<std::string, std::string>> ConfigEntries(
    const SystemConfig& config);

/// Renders `config` as ParseConfigText-compatible text (round-trips).
std::string ConfigToText(const SystemConfig& config);

}  // namespace bdisk::core

#endif  // BDISK_CORE_CONFIG_IO_H_
