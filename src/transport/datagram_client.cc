#include "transport/datagram_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/frame_sink.h"

namespace bdisk::transport {

namespace {

constexpr std::size_t kMaxDatagram = 512;

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

}  // namespace

DatagramClientChannel::~DatagramClientChannel() { CloseSocket(); }

bool DatagramClientChannel::BindEpochSocket(std::string* error) {
  const std::string path = options_.socket_dir + "/" + options_.client_id +
                           "." + std::to_string(epoch_);
  sockaddr_un self{};
  if (!FillAddr(path, &self, error)) return false;
  if (!FillAddr(options_.server_path, &server_, error)) return false;

  const int fd = ::socket(AF_UNIX, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket(AF_UNIX, SOCK_DGRAM): ") +
               std::strerror(errno);
    }
    return false;
  }
  // Bind first; a file left at the path by a crashed run is unlinked only
  // when it is in the way.
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
  sender_len_ = 0;
  return true;
}

bool DatagramClientChannel::SendToServer(const std::string& payload) const {
  return ::sendto(fd_, payload.data(), payload.size(),
                  MSG_DONTWAIT | MSG_NOSIGNAL,
                  reinterpret_cast<const sockaddr*>(&server_),
                  sizeof(server_)) == static_cast<ssize_t>(payload.size());
}

bool DatagramClientChannel::Admit(const wire::Message& msg,
                                  const sockaddr_un& from,
                                  socklen_t from_len) {
  if (sender_len_ == 0) {
    if (msg.type == wire::MsgType::kFin) return true;
    if (msg.type != wire::MsgType::kWelcome ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&from), from_len) !=
            0) {
      return false;
    }
    sender_ = from;
    sender_len_ = from_len;
    return true;
  }
  return from_len == sender_len_ && std::memcmp(&from, &sender_, from_len) == 0;
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
  CloseSocket();
  options_ = options;
  ++epoch_;
  if (!BindEpochSocket(error)) return false;

  // HELLO under bounded exponential backoff: attempt k waits the policy's
  // jittered delay for WELCOME before resending. Deterministic per seed —
  // the same rng stream yields the same pacing trajectory.
  for (std::uint32_t attempt = 0; attempt < options_.max_connect_attempts;
       ++attempt) {
    wire::FormatHello(options_.client_id, &scratch_);
    if (SendToServer(scratch_)) {
      ++counters_.hellos_sent;
    } else if (errno == ENOENT || errno == ECONNREFUSED) {
      // Nothing is bound at the server path: fail now, not after every
      // backoff step.
      if (error != nullptr) {
        *error = "cannot reach serve socket '" + options_.server_path +
                 "' (is bdisk_serve running?): " + std::strerror(errno);
      }
      CloseSocket();
      return false;
    }
    const double wait_s =
        fault::JitteredBackoffDelay(options_.backoff, attempt, rng);
    const int wait_ms = wait_s >= 0.001 ? static_cast<int>(wait_s * 1000.0)
                                        : 1;
    const std::uint64_t welcomes_before = counters_.welcomes_rx;
    PollMessages(wait_ms, nullptr);
    if (!Connected()) break;  // A FIN closed us mid-handshake.
    if (counters_.welcomes_rx > welcomes_before) {
      if (connected_once_) ++counters_.reconnects;
      connected_once_ = true;
      return true;
    }
  }
  CloseSocket();
  if (error != nullptr) {
    *error = "no WELCOME from '" + options_.server_path + "' after " +
             std::to_string(options_.max_connect_attempts) +
             " HELLO attempts";
  }
  return false;
}

void DatagramClientChannel::Crash() { CloseSocket(); }

bool DatagramClientChannel::Goodbye(wire::PeerStats* stats, int timeout_ms) {
  if (fd_ < 0) return false;
  wire::FormatBye(options_.client_id, &scratch_);
  (void)SendToServer(scratch_);
  // Drain until STATS or the deadline: slots already in flight arrive
  // first (FIFO per pair), then the server's closing STATS.
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
  CloseSocket();
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
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return 0;
  }
  char buf[kMaxDatagram];
  int consumed = 0;
  while (fd_ >= 0) {
    sockaddr_un from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n =
        ::recvfrom(fd_, buf, sizeof(buf), MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) break;
    ++consumed;
    wire::Message msg;
    if (!wire::ParseMessage(std::string_view(buf, static_cast<std::size_t>(n)),
                            &msg, nullptr) ||
        !Admit(msg, from, from_len)) {
      ++counters_.malformed_rx;
      continue;
    }
    switch (msg.type) {
      case wire::MsgType::kWelcome:
        ++counters_.welcomes_rx;
        // New epoch on the wire: restart the slot tally the server's
        // slots_tx_epoch reconciles against.
        counters_.slots_rx_epoch = 0;
        welcome_ = msg;
        break;
      case wire::MsgType::kSlot:
        ++counters_.slots_rx_epoch;
        ++counters_.slots_rx_total;
        break;
      case wire::MsgType::kStats:
        ++counters_.stats_rx;
        break;
      case wire::MsgType::kFin:
        ++counters_.fins_rx;
        CloseSocket();
        break;
      default:
        ++counters_.malformed_rx;  // Client-to-server verb echoed at us.
        break;
    }
    if (out != nullptr) out->push_back(msg);
  }
  return consumed;
}

void DatagramClientChannel::CloseSocket() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

}  // namespace bdisk::transport
