// Strict numeric command-line flags for every tool: the whole argument
// must be one decimal number in the flag's range. A refused value exits 2
// with a message naming the flag, before anything is opened or run.

#ifndef BDISK_TOOLS_CLI_NUMBERS_H_
#define BDISK_TOOLS_CLI_NUMBERS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

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

/// The value of `flag`: a finite decimal number in [lo, hi] with no
/// space or anything else around it (NaN and infinities never pass).
inline double DoubleFlag(const char* flag, const char* text, double lo,
                         double hi = HUGE_VAL) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < lo || value > hi) {
    if (std::isinf(hi)) {
      std::fprintf(stderr, "%s wants a finite number >= %g, got '%s'\n",
                   flag, lo, text);
    } else {
      std::fprintf(stderr, "%s wants a finite number in [%g, %g], got '%s'\n",
                   flag, lo, hi, text);
    }
    std::exit(2);
  }
  return value;
}

/// The comma-list form of DoubleFlag: one or more items, each a value in
/// [lo, hi], appended to `out`.
inline void DoubleListFlag(const char* flag, const char* text, double lo,
                           double hi, std::vector<double>* out) {
  const std::string_view list(text);
  for (std::size_t start = 0;;) {
    const std::size_t comma = list.find(',', start);
    const std::string item(list.substr(start, comma - start));
    out->push_back(DoubleFlag(flag, item.c_str(), lo, hi));
    if (comma == std::string_view::npos) return;
    start = comma + 1;
  }
}

}  // namespace bdisk::cli

#endif  // BDISK_TOOLS_CLI_NUMBERS_H_
