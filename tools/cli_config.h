// The config flags of the tools that build a SystemConfig: --config FILE,
// --set KEY=VALUE, and the flags that are another spelling of one config
// key (`--frames DEST` is `--set frames=DEST`). A refused value exits 2
// with a message naming the flag, file or key, before anything is opened
// or run.

#ifndef BDISK_TOOLS_CLI_CONFIG_H_
#define BDISK_TOOLS_CLI_CONFIG_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "core/config_io.h"

namespace bdisk::cli {

/// A flag that sets one config key: `FLAG V` and `FLAG=V` both apply V to
/// `key`. `given`, when set, records that the flag was taken.
struct ConfigAlias {
  const char* flag;
  const char* key;
  bool* given = nullptr;
};

/// Takes argv[*i] when it is --config, --set or one of `aliases`: applies
/// it to `config` and leaves *i on the last argument it took. Returns
/// false, and touches nothing, for any other argument.
inline bool ConfigFlag(int argc, char** argv, int* i,
                       std::span<const ConfigAlias> aliases,
                       core::SystemConfig* config) {
  const std::string arg = argv[*i];
  const auto value_of = [&](const char* flag) -> std::string {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(2);
    }
    return argv[++*i];
  };
  const auto fail = [](const std::string& what, const std::string& error) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(), error.c_str());
    std::exit(2);
  };
  if (arg == "--config") {
    const std::string path = value_of("--config");
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      std::exit(2);
    }
    std::stringstream body;
    body << file.rdbuf();
    const std::string error = core::ParseConfigText(body.str(), config);
    if (!error.empty()) fail(path, error);
    return true;
  }
  if (arg == "--set") {
    const std::string assignment = value_of("--set");
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "--set wants KEY=VALUE\n");
      std::exit(2);
    }
    const std::string error = core::ApplyConfigOption(
        assignment.substr(0, eq), assignment.substr(eq + 1), config);
    if (!error.empty()) fail("--set " + assignment, error);
    return true;
  }
  for (const ConfigAlias& alias : aliases) {
    const std::size_t n = std::strlen(alias.flag);
    if (arg.compare(0, n, alias.flag) != 0) continue;
    if (arg.size() > n && arg[n] != '=') continue;
    const std::string value =
        arg.size() > n ? arg.substr(n + 1) : value_of(alias.flag);
    const std::string error = core::ApplyConfigOption(alias.key, value, config);
    if (!error.empty()) fail(alias.flag, error);
    if (alias.given != nullptr) *alias.given = true;
    return true;
  }
  return false;
}

}  // namespace bdisk::cli

#endif  // BDISK_TOOLS_CLI_CONFIG_H_
