#ifndef BDISK_CORE_CONFIG_IO_H_
#define BDISK_CORE_CONFIG_IO_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"

namespace bdisk::core {

/// Text serialization of SystemConfig for the CLI driver and experiment
/// scripts: simple `key = value` lines, `#` comments, blank lines ignored.
/// The keys, their grammar and their order are the table behind
/// ConfigKeys() (config_io.cc); ROBUSTNESS.md documents the `fault.` keys.

/// One config key, as the table spells it.
struct ConfigKey {
  /// How the key's value is read and written.
  struct Codec {
    /// Applies a trimmed value to `config`: returns an error naming `key`,
    /// or empty. A refused value writes nothing.
    std::string (*parse)(const char* key, const std::string& value,
                         SystemConfig* config);
    /// The value as ConfigToText writes it; empty for an unset optional.
    std::string (*print)(const SystemConfig& config);
    /// The key's double, which SystemConfig::Validate() requires to be
    /// finite; null for a key that holds none.
    double (*number)(const SystemConfig& config) = nullptr;
  };

  const char* name;
  /// Whether core::ServerStack reads the key. bdisk_serve refuses every
  /// other key set away from its default (core::UnservedKey).
  bool served;
  Codec codec;
};

/// Every key, in ConfigToText's order. The list is built once and is the
/// same for every config.
std::span<const ConfigKey> ConfigKeys();

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
/// writes it. An empty value is an unset optional, which ConfigToText
/// omits: mc_policy, update_zipf_theta, flight_recorder and frames when
/// unset, and flight_recorder_max_dumps at its default of 1.
std::vector<std::pair<std::string, std::string>> ConfigEntries(
    const SystemConfig& config);

/// Renders `config` as ParseConfigText-compatible text. It round-trips:
/// each double is written as %g when that reads back exactly, else with
/// the fewest more significant digits that do.
std::string ConfigToText(const SystemConfig& config);

}  // namespace bdisk::core

#endif  // BDISK_CORE_CONFIG_IO_H_
