#include "obs/frame_sink.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace bdisk::obs {

// ---------------------------------------------------------------------------
// FileFrameSink

std::unique_ptr<FileFrameSink> FileFrameSink::Open(const std::string& path,
                                                   std::string* error) {
  if (path == "-") {
    return std::unique_ptr<FileFrameSink>(
        new FileFrameSink(stdout, "-", /*owned=*/false));
  }
  std::FILE* stream = std::fopen(path.c_str(), "w");
  if (stream == nullptr) {
    if (error != nullptr) {
      *error = "cannot open frame file '" + path + "': " + std::strerror(errno);
    }
    return nullptr;
  }
  return std::unique_ptr<FileFrameSink>(
      new FileFrameSink(stream, path, /*owned=*/true));
}

FileFrameSink::~FileFrameSink() {
  if (owned_) {
    std::fclose(stream_);
  } else {
    std::fflush(stream_);
  }
}

bool FileFrameSink::Write(const std::string& frame) {
  std::fwrite(frame.data(), 1, frame.size(), stream_);
  std::fputc('\n', stream_);
  return true;
}

bool FileFrameSink::WriteFinal(const std::string& frame) {
  const bool ok = Write(frame);
  std::fflush(stream_);
  return ok;
}

// ---------------------------------------------------------------------------
// DatagramFrameSink

std::string ValidateUnixSocketPath(const std::string& path) {
  if (path.empty()) return "empty unix socket path";
  constexpr std::size_t kMax = sizeof(sockaddr_un{}.sun_path);
  if (path.size() >= kMax) {
    return "unix socket path too long (" + std::to_string(path.size()) +
           " bytes; the kernel limit is " + std::to_string(kMax - 1) +
           "): " + path;
  }
  return "";
}

std::unique_ptr<DatagramFrameSink> DatagramFrameSink::Open(
    const std::string& path, std::string* error) {
  sockaddr_un addr{};
  {
    const std::string invalid = ValidateUnixSocketPath(path);
    if (!invalid.empty()) {
      if (error != nullptr) *error = invalid;
      return nullptr;
    }
  }
  const int fd = ::socket(AF_UNIX, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket(AF_UNIX, SOCK_DGRAM): ") +
               std::strerror(errno);
    }
    return nullptr;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "cannot connect to frame socket '" + path +
               "' (is the receiver running? start it first): " +
               std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<DatagramFrameSink>(new DatagramFrameSink(fd, path));
}

DatagramFrameSink::~DatagramFrameSink() { ::close(fd_); }

bool DatagramFrameSink::Write(const std::string& frame) {
  // MSG_DONTWAIT belt-and-braces on top of SOCK_NONBLOCK: a full receiver
  // buffer (EAGAIN/ENOBUFS) or a receiver that went away (ECONNREFUSED,
  // ENOENT after unlink) drops the frame; the simulation never waits.
  const ssize_t sent =
      ::send(fd_, frame.data(), frame.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  if (sent == static_cast<ssize_t>(frame.size())) return true;
  ++dropped_;
  return false;
}

bool DatagramFrameSink::WriteFinal(const std::string& frame) {
  // The run is over: burn up to ~200ms of wall time trying to land the
  // stream closer, so a consumer that is merely slow still sees run_end
  // (and its closing deltas). A receiver that never drains loses it —
  // honestly reported by the dropped count.
  for (int attempt = 0; attempt < 100; ++attempt) {
    const ssize_t sent =
        ::send(fd_, frame.data(), frame.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent == static_cast<ssize_t>(frame.size())) return true;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ENOBUFS) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ++dropped_;
  return false;
}

// ---------------------------------------------------------------------------
// Destination grammar

std::unique_ptr<FrameSink> MakeFrameSink(const std::string& dest,
                                         std::string* error) {
  if (dest.empty()) {
    if (error != nullptr) *error = "empty frame destination";
    return nullptr;
  }
  if (dest.rfind("unix:", 0) == 0) {
    return DatagramFrameSink::Open(dest.substr(5), error);
  }
  return FileFrameSink::Open(dest, error);
}

}  // namespace bdisk::obs
