#include "transport/datagram_transport.h"

#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/frame_sink.h"

namespace bdisk::transport {

// The kernel takes a pipe write of at most PIPE_BUF bytes whole or not
// at all, which keeps drop-newest per message.
static_assert(wire::kMaxMessage <= PIPE_BUF,
              "a downlink line must be written atomically");

DatagramServerTransport::Downlink::Downlink(Downlink&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

DatagramServerTransport::Downlink&
DatagramServerTransport::Downlink::operator=(Downlink&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

DatagramServerTransport::Downlink::~Downlink() {
  if (fd_ >= 0) ::close(fd_);
}

DatagramServerTransport::~DatagramServerTransport() {
  Shutdown("shutdown");
}

bool DatagramServerTransport::Bind(const DatagramServerOptions& options,
                                   server::BroadcastServer* server,
                                   std::string* error) {
  if (fd_ >= 0) {
    if (error != nullptr) *error = "transport already bound";
    return false;
  }
  if (server == nullptr) {
    if (error != nullptr) *error = "transport needs a server";
    return false;
  }
  const std::string invalid = obs::ValidateUnixSocketPath(options.socket_path);
  if (!invalid.empty()) {
    if (error != nullptr) *error = invalid;
    return false;
  }
  // Process-wide, and on purpose: a write to a pipe whose reader died
  // raises SIGPIPE, and nothing narrower than the disposition stops it.
  // Ignored, the write fails with EPIPE and counts as drop_dead_peer.
  std::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_UNIX, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket(AF_UNIX, SOCK_DGRAM): ") +
               std::strerror(errno);
    }
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  // Bind first; a socket file already at the path (a dead server's, or a
  // live one's) is unlinked only when it is in the way.
  const auto bind_path = [&] {
    return ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
  };
  bool bound = bind_path();
  if (!bound && errno == EADDRINUSE) {
    ::unlink(options.socket_path.c_str());
    bound = bind_path();
  }
  if (!bound) {
    if (error != nullptr) {
      *error = "cannot bind serve socket '" + options.socket_path +
               "': " + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  fd_ = fd;
  options_ = options;
  server_ = server;
  server_->AddListener(this);
  return true;
}

void DatagramServerTransport::OnBroadcast(PageId page, server::SlotKind kind,
                                          sim::SimTime now) {
  const std::uint64_t seq = slot_seq_++;
  if (peers_.empty()) return;
  // Wire-level slot fate is judged once per slot, not per peer: a slot the
  // channel loses reaches nobody, mirroring the sim frontchannel. Lost and
  // corrupted both mean "no usable slot at any client", so both withhold
  // the fan-out and count as drop_fault per missing delivery.
  if (options_.injector != nullptr &&
      options_.injector->JudgeSlot() != fault::SlotFate::kDelivered) {
    for (auto& [id, peer] : peers_) {
      (void)id;
      ++peer.stats.drop_fault;
      ++counters_.drop_fault;
    }
    return;
  }
  wire::FormatSlot(seq, page, kind, now, &scratch_);
  scratch_.push_back('\n');
  for (auto& [id, peer] : peers_) {
    (void)id;
    switch (WriteLine(peer, scratch_)) {
      case SendOutcome::kOk:
        ++peer.stats.slots_tx_epoch;
        ++counters_.slots_tx;
        break;
      case SendOutcome::kBackpressure:
        ++peer.stats.drop_backpressure;
        ++counters_.drop_backpressure;
        break;
      case SendOutcome::kDeadPeer:
        // No eviction here: identity (and cumulative counters) survive a
        // quick client restart; only the heartbeat deadline forgets.
        ++peer.stats.drop_dead_peer;
        ++counters_.drop_dead_peer;
        break;
    }
  }
}

int DatagramServerTransport::Poll(double wall_now) {
  if (fd_ < 0) return 0;
  char buf[wire::kMaxMessage];
  int consumed = 0;
  for (;;) {
    sockaddr_un from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n =
        ::recvfrom(fd_, buf, sizeof(buf), MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) break;  // EAGAIN: drained. Anything else: nothing to do.
    ++consumed;
    wire::Message msg;
    if (!wire::ParseMessage(std::string_view(buf, static_cast<std::size_t>(n)),
                            &msg, nullptr)) {
      ++counters_.malformed_rx;
      continue;
    }
    switch (msg.type) {
      case wire::MsgType::kHello:
        OnHello(msg.client_id, from, from_len, wall_now);
        break;
      case wire::MsgType::kPull:
      case wire::MsgType::kPing:
      case wire::MsgType::kBye: {
        const auto it = peers_.find(msg.client_id);
        Peer* peer = it == peers_.end() ? nullptr : &it->second;
        if (peer != nullptr && !peer->SentFrom(from, from_len)) {
          // Another socket speaking for a connected peer: refused before
          // it touches the peer's counters, deadline, pipe or identity.
          ++counters_.wrong_source_rx;
          break;
        }
        if (peer != nullptr) peer->last_heard = wall_now;
        if (msg.type == wire::MsgType::kPull) {
          OnPull(msg, peer);
        } else if (msg.type == wire::MsgType::kPing) {
          ++counters_.pings_rx;
        } else {
          ++counters_.byes_rx;
          if (peer != nullptr) OnBye(it);
        }
        break;
      }
      default:
        // Server-to-client verbs arriving here are misdirected traffic.
        ++counters_.malformed_rx;
        break;
    }
  }
  return consumed;
}

void DatagramServerTransport::OnHello(const std::string& client_id,
                                      const sockaddr_un& from,
                                      socklen_t from_len, double wall_now) {
  auto it = peers_.find(client_id);
  const bool known = it != peers_.end();
  // Every HELLO gets a fresh pipe. The WELCOME goes out first; only then
  // is a known peer's old write end closed (by the move below), so the
  // old pipe holds exactly what was written before the new WELCOME.
  int ends[2] = {-1, -1};
  bool welcomed = false;
  if ((known || peers_.size() < options_.max_peers) &&
      ::pipe2(ends, O_NONBLOCK | O_CLOEXEC) == 0) {
    wire::FormatWelcome(options_.db_size, options_.cycle_len,
                        options_.slot_us, &scratch_);
    welcomed = SendWelcome(ends[0], from, from_len);
    ::close(ends[0]);  // In flight with the WELCOME, or refused.
  }
  Downlink downlink(ends[1]);
  if (!welcomed) {
    ++counters_.peers_rejected;
    wire::FormatFin("full", &scratch_);
    (void)::sendto(fd_, scratch_.data(), scratch_.size(),
                   MSG_DONTWAIT | MSG_NOSIGNAL,
                   reinterpret_cast<const sockaddr*>(&from), from_len);
    return;
  }
  if (known) {
    // Reconnect (or duplicate HELLO — indistinguishable, handled the
    // same): new slot epoch. The client zeroes its received-slot tally on
    // the WELCOME this sent, so both epoch counters restart together
    // even after a client crash.
    ++it->second.stats.reconnects;
    ++counters_.reconnects;
    it->second.stats.slots_tx_epoch = 0;
  } else {
    it = peers_.emplace(client_id, Peer{}).first;
    it->second.trace_client = next_trace_client_++;
  }
  ++counters_.hellos;
  it->second.downlink = std::move(downlink);
  it->second.address = from;
  it->second.address_len = from_len;
  it->second.last_heard = wall_now;
}

bool DatagramServerTransport::SendWelcome(int pipe_read,
                                          const sockaddr_un& to,
                                          socklen_t to_len) const {
  iovec iov{const_cast<char*>(scratch_.data()), scratch_.size()};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_name = const_cast<sockaddr_un*>(&to);
  msg.msg_namelen = to_len;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), &pipe_read, sizeof(int));
  return ::sendmsg(fd_, &msg, MSG_DONTWAIT | MSG_NOSIGNAL) ==
         static_cast<ssize_t>(scratch_.size());
}

void DatagramServerTransport::OnPull(const wire::Message& msg, Peer* peer) {
  if (peer == nullptr) {
    ++counters_.pulls_unknown_peer;
    return;
  }
  // The queue indexes its page mask by page, so a page the program does
  // not hold is refused here, at the trust boundary, and never counted as
  // received.
  if (msg.page >= server_->program().DbSize()) {
    ++counters_.pulls_bad_page;
    return;
  }
  // pulls_rx counts pre-judgement: it is the denominator the client's
  // send count reconciles against (sends that the kernel accepted all
  // arrive — AF_UNIX does not lose datagrams — so rx == sent_ok exactly).
  ++peer->stats.pulls_rx;
  ++counters_.pulls_rx;
  if (options_.injector != nullptr &&
      options_.injector->JudgeRequestLost()) {
    ++peer->stats.pulls_fault_dropped;
    ++counters_.pulls_fault_dropped;
    return;
  }
  (void)server_->SubmitRequest(msg.page, peer->trace_client);
}

void DatagramServerTransport::OnBye(std::map<std::string, Peer>::iterator it) {
  // The pipe is FIFO, so this STATS lands after every slot line already
  // written to the peer, and the BYE that triggered it arrived after every
  // PULL the client sent — so the counters are a consistent cut, and
  // reconciliation can demand equality. Erasing the peer closes its pipe.
  wire::FormatStats(it->second.stats, &scratch_);
  scratch_.push_back('\n');
  (void)WriteFinal(it->second, scratch_);
  peers_.erase(it);
}

int DatagramServerTransport::EvictDeadPeers(double wall_now) {
  if (options_.heartbeat_deadline <= 0.0) return 0;
  int evicted = 0;
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (wall_now - it->second.last_heard > options_.heartbeat_deadline) {
      wire::FormatFin("evicted", &scratch_);
      scratch_.push_back('\n');
      (void)WriteLine(it->second, scratch_);
      it = peers_.erase(it);
      ++counters_.evictions;
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

void DatagramServerTransport::Shutdown(const std::string& reason) {
  if (fd_ < 0) return;
  wire::FormatFin(reason, &scratch_);
  scratch_.push_back('\n');
  for (auto& [id, peer] : peers_) {
    (void)id;
    (void)WriteFinal(peer, scratch_);
  }
  peers_.clear();
  ::close(fd_);
  fd_ = -1;
  ::unlink(options_.socket_path.c_str());
}

bool DatagramServerTransport::WaitReadable(int timeout_ms) const {
  if (fd_ < 0) return false;
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0 && (pfd.revents & POLLIN) != 0;
}

const wire::PeerStats* DatagramServerTransport::FindPeerStats(
    const std::string& client_id) const {
  const auto it = peers_.find(client_id);
  return it == peers_.end() ? nullptr : &it->second.stats;
}

DatagramServerTransport::SendOutcome DatagramServerTransport::WriteLine(
    const Peer& peer, const std::string& line) {
  if (::write(peer.downlink.fd(), line.data(), line.size()) ==
      static_cast<ssize_t>(line.size())) {
    return SendOutcome::kOk;
  }
  return errno == EAGAIN ? SendOutcome::kBackpressure
                         : SendOutcome::kDeadPeer;
}

bool DatagramServerTransport::WriteFinal(const Peer& peer,
                                         const std::string& line) {
  // Same ~200ms bounded retry as obs::DatagramFrameSink::WriteFinal: the
  // goodbye handshake is worth a short wait, but never an unbounded one.
  for (int attempt = 0; attempt < 100; ++attempt) {
    switch (WriteLine(peer, line)) {
      case SendOutcome::kOk:
        return true;
      case SendOutcome::kDeadPeer:
        return false;
      case SendOutcome::kBackpressure:
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        break;
    }
  }
  return false;
}

}  // namespace bdisk::transport
