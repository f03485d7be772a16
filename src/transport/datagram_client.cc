#include "transport/datagram_client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/frame_sink.h"

namespace bdisk::transport {

namespace {

bool FillAddr(const std::string& path, sockaddr_un* addr,
              std::string* error) {
  const std::string invalid = obs::ValidateUnixSocketPath(path);
  if (!invalid.empty()) {
    if (error != nullptr) *error = invalid;
    return false;
  }
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// The one descriptor a received datagram carried, or -1. When it carried
/// more than one, or the kernel cut some off (MSG_CTRUNC), every
/// descriptor that did arrive is closed and the result is -1. `*carried`
/// says whether any came at all.
int TakeOnlyDescriptor(msghdr* msg, bool* carried) {
  int only = -1;
  bool extra = (msg->msg_flags & MSG_CTRUNC) != 0;
  *carried = extra;
  for (cmsghdr* c = CMSG_FIRSTHDR(msg); c != nullptr;
       c = CMSG_NXTHDR(msg, c)) {
    if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_RIGHTS) continue;
    const std::size_t count = (c->cmsg_len - CMSG_LEN(0)) / sizeof(int);
    for (std::size_t i = 0; i < count; ++i) {
      int fd = -1;
      std::memcpy(&fd, CMSG_DATA(c) + i * sizeof(int), sizeof(int));
      *carried = true;
      if (only < 0 && !extra) {
        only = fd;
      } else {
        extra = true;
        ::close(fd);
      }
    }
  }
  if (extra && only >= 0) {
    ::close(only);
    only = -1;
  }
  return only;
}

/// True when `fd` is the read end of a pipe (or FIFO); leaves it
/// nonblocking.
bool IsPipeReadEnd(int fd) {
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISFIFO(st.st_mode)) return false;
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || (flags & O_ACCMODE) != O_RDONLY) return false;
  return (flags & O_NONBLOCK) != 0 ||
         ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

DatagramClientChannel::~DatagramClientChannel() { Close(); }

bool DatagramClientChannel::OpenEpochSocket(std::string* error) {
  const std::string path = options_.socket_dir + "/" + options_.client_id +
                           "." + std::to_string(epoch_);
  sockaddr_un self{};
  sockaddr_un server{};
  if (!FillAddr(path, &self, error)) return false;
  if (!FillAddr(options_.server_path, &server, error)) return false;

  const int fd = ::socket(AF_UNIX, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket(AF_UNIX, SOCK_DGRAM): ") +
               std::strerror(errno);
    }
    return false;
  }
  // Connect before bind: nobody can send to an unbound socket, so by the
  // time this one has an address the kernel refuses every sender but the
  // serving socket.
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&server),
                sizeof(server)) != 0) {
    Unreachable(errno, error);
    ::close(fd);
    return false;
  }
  // A file left at the path by a crashed run is unlinked only when it is
  // in the way.
  const auto bind_path = [&] {
    return ::bind(fd, reinterpret_cast<const sockaddr*>(&self),
                  sizeof(self)) == 0;
  };
  bool bound = bind_path();
  if (!bound && errno == EADDRINUSE) {
    ::unlink(path.c_str());
    bound = bind_path();
  }
  if (!bound) {
    if (error != nullptr) {
      *error = "cannot bind client socket '" + path +
               "': " + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  fd_ = fd;
  path_ = path;
  return true;
}

void DatagramClientChannel::Unreachable(int err,
                                        std::string* error) const {
  if (error == nullptr) return;
  if (err == ENOENT || err == ECONNREFUSED) {
    *error = "cannot reach serve socket '" + options_.server_path +
             "' (is bdisk_serve running?): " + std::strerror(err);
  } else {
    *error = "cannot connect to serve socket '" + options_.server_path +
             "': " + std::strerror(err);
  }
}

bool DatagramClientChannel::SendToServer(const std::string& payload) {
  if (::send(fd_, payload.data(), payload.size(),
             MSG_DONTWAIT | MSG_NOSIGNAL) ==
      static_cast<ssize_t>(payload.size())) {
    return true;
  }
  // The serving socket is gone: the kernel refuses the first send with
  // ECONNREFUSED and disconnects, after which a send finds no peer at all.
  // Either way the channel is over, as on the pipe's EOF.
  if (errno == ECONNREFUSED || errno == ENOTCONN) {
    const int err = errno;
    Close();
    errno = err;
  }
  return false;
}

bool DatagramClientChannel::Connect(const DatagramClientOptions& options,
                                    sim::Rng* rng, std::string* error) {
  if (!wire::ValidClientId(options.client_id)) {
    if (error != nullptr) {
      *error = "invalid client id '" + options.client_id +
               "' (nonempty, <= 64 bytes, no whitespace)";
    }
    return false;
  }
  const std::string policy_error = options.backoff.Validate();
  if (!policy_error.empty()) {
    if (error != nullptr) *error = "backoff: " + policy_error;
    return false;
  }
  Close();
  options_ = options;
  ++epoch_;
  if (!OpenEpochSocket(error)) return false;

  // HELLO under bounded exponential backoff: attempt k waits the policy's
  // jittered delay for WELCOME before resending. Deterministic per seed —
  // the same rng stream yields the same pacing trajectory.
  for (std::uint32_t attempt = 0; attempt < options_.max_connect_attempts;
       ++attempt) {
    wire::FormatHello(options_.client_id, &scratch_);
    if (SendToServer(scratch_)) {
      ++counters_.hellos_sent;
    } else if (!Connected()) {
      // The serving socket died after connect(): fail now, not after
      // every backoff step.
      Unreachable(errno, error);
      return false;
    }
    const double wait_s =
        fault::JitteredBackoffDelay(options_.backoff, attempt, rng);
    const int wait_ms = wait_s >= 0.001 ? static_cast<int>(wait_s * 1000.0)
                                        : 1;
    const std::uint64_t welcomes_before = counters_.welcomes_rx;
    // No pipe until the WELCOME hands one over: wait on the socket alone,
    // and stop at the WELCOME.
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, wait_ms) > 0) {
      int consumed = 0;
      while (Connected() && counters_.welcomes_rx == welcomes_before &&
             TakeDatagram(nullptr, &consumed)) {
      }
    }
    if (!Connected()) break;  // A FIN closed us mid-handshake.
    if (counters_.welcomes_rx > welcomes_before) {
      if (connected_once_) ++counters_.reconnects;
      connected_once_ = true;
      return true;
    }
  }
  Close();
  if (error != nullptr) {
    *error = "no WELCOME from '" + options_.server_path + "' after " +
             std::to_string(options_.max_connect_attempts) +
             " HELLO attempts";
  }
  return false;
}

void DatagramClientChannel::Crash() { Close(); }

bool DatagramClientChannel::Goodbye(wire::PeerStats* stats, int timeout_ms) {
  if (fd_ < 0) return false;
  wire::FormatBye(options_.client_id, &scratch_);
  (void)SendToServer(scratch_);
  // Drain until STATS or the deadline: slots already on the pipe arrive
  // first (it is FIFO), then the server's closing STATS.
  bool got_stats = false;
  int remaining = timeout_ms;
  std::vector<wire::Message> messages;
  while (remaining > 0 && Connected() && !got_stats) {
    messages.clear();
    const int step = remaining < 20 ? remaining : 20;
    if (PollMessages(step, &messages) == 0) remaining -= step;
    for (const wire::Message& msg : messages) {
      if (msg.type == wire::MsgType::kStats) {
        if (stats != nullptr) *stats = msg.stats;
        got_stats = true;
      }
    }
  }
  Close();
  return got_stats;
}

bool DatagramClientChannel::SendPull(PageId page) {
  if (fd_ < 0) return false;
  wire::FormatPull(options_.client_id, page, &scratch_);
  if (SendToServer(scratch_)) {
    ++counters_.pulls_sent;
    return true;
  }
  ++counters_.pulls_send_failed;
  return false;
}

void DatagramClientChannel::SendPing() {
  if (fd_ < 0) return;
  wire::FormatPing(options_.client_id, &scratch_);
  if (SendToServer(scratch_)) ++counters_.pings_sent;
}

int DatagramClientChannel::PollMessages(int timeout_ms,
                                        std::vector<wire::Message>* out) {
  if (fd_ < 0) return 0;
  if (timeout_ms > 0) {
    // A negative descriptor (no pipe before the first WELCOME) is ignored.
    pollfd pfds[2] = {{fd_, POLLIN, 0}, {pipe_, POLLIN, 0}};
    if (::poll(pfds, 2, timeout_ms) <= 0) return 0;
  }
  int consumed = 0;
  for (;;) {
    const bool eof = pipe_ >= 0 && DrainPipe(pipe_, out, &consumed);
    if (fd_ < 0) break;
    // The server closes a pipe only after its successor's WELCOME has
    // left, so after an EOF that WELCOME, if there is one, is queued.
    const std::uint64_t welcomes = counters_.welcomes_rx;
    while (fd_ >= 0 && TakeDatagram(out, &consumed)) {
    }
    if (fd_ < 0) break;
    if (counters_.welcomes_rx != welcomes) continue;  // Read the new pipe.
    if (eof) Close();  // The server dropped this peer.
    break;
  }
  return consumed;
}

bool DatagramClientChannel::TakeDatagram(std::vector<wire::Message>* out,
                                         int* consumed) {
  char buf[wire::kMaxMessage];
  // Room for more descriptors than a WELCOME carries, so that extras
  // arrive (and are closed) instead of being cut off unseen.
  alignas(cmsghdr) char control[CMSG_SPACE(4 * sizeof(int))];
  iovec iov{buf, sizeof(buf)};
  msghdr hdr{};
  hdr.msg_iov = &iov;
  hdr.msg_iovlen = 1;
  hdr.msg_control = control;
  hdr.msg_controllen = sizeof(control);
  const ssize_t n = ::recvmsg(fd_, &hdr, MSG_DONTWAIT | MSG_CMSG_CLOEXEC);
  if (n < 0) return false;
  ++*consumed;
  bool carried = false;
  const int fd = TakeOnlyDescriptor(&hdr, &carried);
  wire::Message msg;
  const bool taken =
      (hdr.msg_flags & MSG_TRUNC) == 0 &&
      wire::ParseMessage(std::string_view(buf, static_cast<std::size_t>(n)),
                         &msg, nullptr) &&
      (msg.type == wire::MsgType::kWelcome
           ? fd >= 0 && IsPipeReadEnd(fd)
           : msg.type == wire::MsgType::kFin && !carried);
  if (!taken) {
    if (fd >= 0) ::close(fd);
    ++counters_.malformed_rx;
    return true;
  }
  if (msg.type == wire::MsgType::kFin) {
    ++counters_.fins_rx;
    Close();
  } else {
    SwitchPipe(fd, out, consumed);
    if (fd_ < 0) return true;  // A FIN on the old pipe closed the channel.
    ++counters_.welcomes_rx;
    // New epoch on the wire: restart the slot tally the server's
    // slots_tx_epoch reconciles against.
    counters_.slots_rx_epoch = 0;
    welcome_ = msg;
  }
  if (out != nullptr) out->push_back(msg);
  return true;
}

void DatagramClientChannel::SwitchPipe(int pipe,
                                       std::vector<wire::Message>* out,
                                       int* consumed) {
  if (pipe_ >= 0) {
    // Everything on the old pipe was written before this WELCOME left,
    // so draining it to EAGAIN (or EOF) ends the old epoch exactly.
    (void)DrainPipe(pipe_, out, consumed);
    if (fd_ < 0) {
      ::close(pipe);
      return;
    }
    DropPartialLine(consumed);
    ::close(pipe_);
  }
  pipe_ = pipe;
}

bool DatagramClientChannel::DrainPipe(int pipe,
                                      std::vector<wire::Message>* out,
                                      int* consumed) {
  char buf[4096];
  while (fd_ >= 0) {
    const ssize_t n = ::read(pipe, buf, sizeof(buf));
    if (n == 0) {
      DropPartialLine(consumed);
      return true;
    }
    if (n < 0) break;  // EAGAIN: drained for now.
    TakeBytes(std::string_view(buf, static_cast<std::size_t>(n)), out,
              consumed);
  }
  return false;
}

void DatagramClientChannel::TakeBytes(std::string_view bytes,
                                      std::vector<wire::Message>* out,
                                      int* consumed) {
  // A line, '\n' included, fits in kMaxMessage bytes. A longer one counts
  // once when it outgrows that, and is skipped through its '\n'.
  while (!bytes.empty() && fd_ >= 0) {
    const std::size_t end = bytes.find('\n');
    const std::string_view piece = bytes.substr(0, end);
    if (discarding_) {
      if (end == std::string_view::npos) return;
      discarding_ = false;
    } else if (line_.size() + piece.size() >= wire::kMaxMessage) {
      ++*consumed;
      ++counters_.malformed_rx;
      line_.clear();
      discarding_ = end == std::string_view::npos;
    } else if (end == std::string_view::npos) {
      line_.append(piece);
      return;
    } else {
      ++*consumed;
      if (line_.empty()) {
        TakeLine(piece, out);
      } else {
        line_.append(piece);
        TakeLine(line_, out);
        line_.clear();
      }
    }
    if (end == std::string_view::npos) return;
    bytes.remove_prefix(end + 1);
  }
}

void DatagramClientChannel::TakeLine(std::string_view line,
                                     std::vector<wire::Message>* out) {
  wire::Message msg;
  if (!wire::ParseMessage(line, &msg, nullptr)) {
    ++counters_.malformed_rx;
    return;
  }
  switch (msg.type) {
    case wire::MsgType::kSlot:
      ++counters_.slots_rx_epoch;
      ++counters_.slots_rx_total;
      break;
    case wire::MsgType::kStats:
      ++counters_.stats_rx;
      break;
    case wire::MsgType::kFin:
      ++counters_.fins_rx;
      Close();
      break;
    default:
      // A WELCOME belongs on the socket, with its pipe; client-to-server
      // verbs do not belong here at all.
      ++counters_.malformed_rx;
      return;
  }
  if (out != nullptr) out->push_back(msg);
}

void DatagramClientChannel::DropPartialLine(int* consumed) {
  if (!line_.empty()) {
    ++*consumed;
    ++counters_.malformed_rx;
    line_.clear();
  }
  discarding_ = false;
}

void DatagramClientChannel::Close() {
  if (pipe_ >= 0) {
    ::close(pipe_);
    pipe_ = -1;
  }
  line_.clear();
  discarding_ = false;
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

}  // namespace bdisk::transport
