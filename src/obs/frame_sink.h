#ifndef BDISK_OBS_FRAME_SINK_H_
#define BDISK_OBS_FRAME_SINK_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace bdisk::obs {

/// Destination for `bdisk-frame-v1` JSONL frames (one complete JSON
/// document per Write call, no trailing newline in `frame`).
///
/// The contract every implementation honours: Write NEVER blocks the
/// caller. It returns true when the frame was handed off (written to the
/// stream, or to the kernel's datagram buffer) and false when the frame
/// was dropped. The TelemetryBus credits counter deltas only on a true
/// return, so a dropped frame's deltas carry forward into the next frame
/// that does get through — reconciliation stays exact under any drop
/// pattern (OBSERVABILITY.md §8).
class FrameSink {
 public:
  virtual ~FrameSink() = default;

  /// Hands one frame to the destination. Returns false if dropped.
  virtual bool Write(const std::string& frame) = 0;

  /// Like Write, for the stream-closing `run_end` frame. The simulation
  /// is over by now, so sinks may spend bounded wall time (the datagram
  /// sink retries for a grace period) to get the closer delivered.
  virtual bool WriteFinal(const std::string& frame) { return Write(frame); }

  /// Frames this sink refused (subset of the bus's dropped count only in
  /// that the bus also counts frames dropped for other reasons; in
  /// practice the two match).
  virtual std::uint64_t Dropped() const { return 0; }

  /// Human-readable destination, for banners and errors.
  virtual std::string Describe() const = 0;
};

/// Appends frames as lines to a stdio stream; never drops. Owns and
/// closes the FILE unless it is stdout/stderr.
class FileFrameSink : public FrameSink {
 public:
  /// `path` "-" means stdout. Returns null (and sets `error`) when the
  /// file cannot be opened.
  static std::unique_ptr<FileFrameSink> Open(const std::string& path,
                                             std::string* error);
  ~FileFrameSink() override;

  bool Write(const std::string& frame) override;
  bool WriteFinal(const std::string& frame) override;
  std::string Describe() const override { return path_; }

 private:
  FileFrameSink(std::FILE* stream, std::string path, bool owned)
      : stream_(stream), path_(std::move(path)), owned_(owned) {}

  std::FILE* stream_;
  std::string path_;
  bool owned_;
};

/// Nonblocking UNIX-datagram sink: one frame per datagram to a bound
/// receiver (e.g. `bdisk_top unix:PATH`). The bounded queue is the
/// kernel's datagram buffer; when it is full the *incoming* frame is
/// dropped (drop-newest) and counted — the sender never blocks and never
/// buffers frames in user space, which is what keeps delta credit equal
/// to delivery (see FrameSink contract). WriteFinal retries for a short
/// grace period so the stream closer survives a transient backlog.
class DatagramFrameSink : public FrameSink {
 public:
  /// Connects a SOCK_DGRAM socket to the receiver bound at `path`.
  /// Returns null (and sets `error`) when the socket cannot be created or
  /// connected — in particular when no receiver is listening yet; start
  /// the consumer first.
  static std::unique_ptr<DatagramFrameSink> Open(const std::string& path,
                                                 std::string* error);
  ~DatagramFrameSink() override;

  bool Write(const std::string& frame) override;
  bool WriteFinal(const std::string& frame) override;
  std::uint64_t Dropped() const override { return dropped_; }
  std::string Describe() const override { return "unix:" + path_; }

 private:
  DatagramFrameSink(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
  std::uint64_t dropped_ = 0;
};

/// Validates `path` as a bindable/connectable AF_UNIX socket path:
/// non-empty and strictly shorter than sizeof(sockaddr_un::sun_path)
/// (the kernel would otherwise silently truncate it, and sender and
/// receiver could end up on *different* truncated names). Returns an
/// error message naming the limit, or empty when the path is usable.
/// Shared by every socket user: the datagram frame sink, `bdisk_top`'s
/// receiver, and the bdisk::transport datagram backends.
std::string ValidateUnixSocketPath(const std::string& path);

/// Builds a sink from the `--frames` / `frames` destination grammar:
/// "-" = stdout, "unix:PATH" = nonblocking datagram socket, anything else
/// = file path (JSONL, truncated). Returns null and sets `error` on
/// failure.
std::unique_ptr<FrameSink> MakeFrameSink(const std::string& dest,
                                         std::string* error);

}  // namespace bdisk::obs

#endif  // BDISK_OBS_FRAME_SINK_H_
