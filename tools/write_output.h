// One writer for every tool's output documents: a file path, or "-" for
// stdout. A non-empty document always ends its line, so whatever a tool
// prints to stdout after it starts on a line of its own.

#ifndef BDISK_TOOLS_WRITE_OUTPUT_H_
#define BDISK_TOOLS_WRITE_OUTPUT_H_

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace bdisk::cli {

/// Writes `body` to the file at `path`, or to stdout when `path` is "-",
/// adding a final newline when a non-empty body lacks one. Returns false,
/// after naming the path and the error on stderr, when the file cannot be
/// opened, or the write or the close (the flush, for stdout) fails.
inline bool WriteOutput(const std::string& path, std::string_view body) {
  std::FILE* out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  bool ok = out != nullptr;
  if (ok) {
    ok = std::fwrite(body.data(), 1, body.size(), out) == body.size();
    if (ok && !body.empty() && body.back() != '\n') {
      ok = std::fputc('\n', out) != EOF;
    }
    ok = (out == stdout ? std::fflush(out) : std::fclose(out)) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
  }
  return ok;
}

}  // namespace bdisk::cli

#endif  // BDISK_TOOLS_WRITE_OUTPUT_H_
