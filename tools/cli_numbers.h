// Strict numeric command-line flags for the serve/load tools: the whole
// argument must be one decimal number in the flag's range. A refused value
// exits 2 with a message naming the flag, before anything is opened.

#ifndef BDISK_TOOLS_CLI_NUMBERS_H_
#define BDISK_TOOLS_CLI_NUMBERS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace bdisk::cli {

/// The value of `flag`: a decimal integer in [lo, hi] with no sign, space
/// or anything else around it.
inline std::uint64_t UnsignedFlag(const char* flag, const char* text,
                                  std::uint64_t lo, std::uint64_t hi) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    std::fprintf(stderr, "%s wants an integer in [%llu, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
    std::exit(2);
  }
  return value;
}

/// The value of `flag`: a finite number of seconds >= 0, with nothing
/// after it.
inline double SecondsFlag(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    std::fprintf(stderr, "%s wants a finite number of seconds >= 0, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}

}  // namespace bdisk::cli

#endif  // BDISK_TOOLS_CLI_NUMBERS_H_
