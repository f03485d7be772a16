#include "transport/datagram_transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/frame_sink.h"

namespace bdisk::transport {

namespace {

/// Datagrams are short text lines; 512 bytes dwarfs the longest STATS.
constexpr std::size_t kMaxDatagram = 512;

bool RefusedBackpressure(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS;
}

}  // namespace

DatagramServerTransport::SenderSocket::SenderSocket(
    SenderSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

DatagramServerTransport::SenderSocket&
DatagramServerTransport::SenderSocket::operator=(
    SenderSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

DatagramServerTransport::SenderSocket::~SenderSocket() {
  if (fd_ >= 0) ::close(fd_);
}

bool DatagramServerTransport::SenderSocket::Open() {
  const int fd = ::socket(AF_UNIX, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return false;
  // An address of bare sa_family asks the kernel to autobind.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(sa_family_t)) != 0) {
    ::close(fd);
    return false;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  return true;
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
  // The spare goes first, so the path appears only with a sender ready.
  SenderSocket spare;
  const int fd =
      spare.Open() ? ::socket(AF_UNIX, SOCK_DGRAM | SOCK_NONBLOCK, 0) : -1;
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
  path_ = options.socket_path;
  spare_ = std::move(spare);
  options_ = options;
  server_ = server;
  server_->AddListener(this);
  return true;
}

server::SubmitResult DatagramServerTransport::SubmitPull(
    PageId page, std::uint32_t client) {
  return server_->SubmitRequest(page, client);
}

std::string DatagramServerTransport::Describe() const {
  return "unix:" + path_;
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
  for (auto& [id, peer] : peers_) {
    (void)id;
    switch (SendTo(peer, scratch_)) {
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
  char buf[kMaxDatagram];
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
        OnPull(msg, wall_now);
        break;
      case wire::MsgType::kPing: {
        ++counters_.pings_rx;
        auto it = peers_.find(msg.client_id);
        if (it != peers_.end()) it->second.last_heard = wall_now;
        break;
      }
      case wire::MsgType::kBye:
        ++counters_.byes_rx;
        OnBye(msg.client_id);
        break;
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
  // A known peer re-aims its own sender, never a new one: a client still
  // connected to that sender (a duplicate HELLO) keeps receiving, and a
  // reconnect moves it to the new epoch path. A new peer takes the spare.
  int sender = -1;
  if (known) {
    sender = it->second.sender.fd();
  } else if (peers_.size() < options_.max_peers &&
             (spare_.fd() >= 0 || spare_.Open())) {
    sender = spare_.fd();
  }
  if (sender < 0 ||
      ::connect(sender, reinterpret_cast<const sockaddr*>(&from),
                from_len) != 0) {
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
    // the WELCOME this triggers, so both epoch counters restart together
    // even after a client crash.
    ++it->second.stats.reconnects;
    ++counters_.reconnects;
    it->second.stats.slots_tx_epoch = 0;
  } else {
    it = peers_.emplace(client_id, Peer{}).first;
    it->second.sender = std::move(spare_);
    it->second.trace_client = next_trace_client_++;
  }
  ++counters_.hellos;
  Peer& peer = it->second;
  peer.last_heard = wall_now;
  wire::FormatWelcome(options_.db_size, options_.cycle_len, options_.slot_us,
                      &scratch_);
  (void)SendTo(peer, scratch_);
  // The next peer's sender, opened now that this WELCOME is out. If the
  // kernel refuses, the next new peer's HELLO tries once more.
  if (spare_.fd() < 0) (void)spare_.Open();
}

void DatagramServerTransport::OnPull(const wire::Message& msg,
                                     double wall_now) {
  auto it = peers_.find(msg.client_id);
  if (it == peers_.end()) {
    ++counters_.pulls_unknown_peer;
    return;
  }
  Peer& peer = it->second;
  peer.last_heard = wall_now;
  // pulls_rx counts pre-judgement: it is the denominator the client's
  // send count reconciles against (sends that the kernel accepted all
  // arrive — AF_UNIX does not lose datagrams — so rx == sent_ok exactly).
  ++peer.stats.pulls_rx;
  ++counters_.pulls_rx;
  if (options_.injector != nullptr &&
      options_.injector->JudgeRequestLost()) {
    ++peer.stats.pulls_fault_dropped;
    ++counters_.pulls_fault_dropped;
    return;
  }
  (void)server_->SubmitRequest(msg.page, peer.trace_client);
}

void DatagramServerTransport::OnBye(const std::string& client_id) {
  auto it = peers_.find(client_id);
  if (it == peers_.end()) return;
  // FIFO ordering per sender/receiver pair means this STATS lands after
  // every slot datagram already sent to the peer, and the BYE that
  // triggered it arrived after every PULL the client sent — so the
  // counters are a consistent cut, and reconciliation can demand equality.
  wire::FormatStats(it->second.stats, &scratch_);
  (void)SendFinal(it->second, scratch_);
  peers_.erase(it);
}

int DatagramServerTransport::EvictDeadPeers(double wall_now) {
  if (options_.heartbeat_deadline <= 0.0) return 0;
  int evicted = 0;
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (wall_now - it->second.last_heard > options_.heartbeat_deadline) {
      wire::FormatFin("evicted", &scratch_);
      (void)SendTo(it->second, scratch_);
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
  for (auto& [id, peer] : peers_) {
    (void)id;
    (void)SendFinal(peer, scratch_);
  }
  peers_.clear();
  spare_ = SenderSocket();
  ::close(fd_);
  fd_ = -1;
  ::unlink(path_.c_str());
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

DatagramServerTransport::SendOutcome DatagramServerTransport::SendTo(
    const Peer& peer, const std::string& payload) const {
  const ssize_t sent = ::send(peer.sender.fd(), payload.data(),
                              payload.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  if (sent == static_cast<ssize_t>(payload.size())) return SendOutcome::kOk;
  return RefusedBackpressure(errno) ? SendOutcome::kBackpressure
                                    : SendOutcome::kDeadPeer;
}

bool DatagramServerTransport::SendFinal(const Peer& peer,
                                        const std::string& payload) const {
  // Same ~200ms bounded retry as obs::DatagramFrameSink::WriteFinal: the
  // goodbye handshake is worth a short wait, but never an unbounded one.
  for (int attempt = 0; attempt < 100; ++attempt) {
    const ssize_t sent = ::send(peer.sender.fd(), payload.data(),
                                payload.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent == static_cast<ssize_t>(payload.size())) return true;
    if (!RefusedBackpressure(errno)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

void DatagramServerTransport::AppendCounterSamples(
    std::vector<obs::CounterSample>* out) const {
  const TransportCounters& c = counters_;
  out->push_back({"transport.hellos", c.hellos});
  out->push_back({"transport.reconnects", c.reconnects});
  out->push_back({"transport.peers_rejected", c.peers_rejected});
  out->push_back({"transport.pulls_rx", c.pulls_rx});
  out->push_back({"transport.pulls_fault_dropped", c.pulls_fault_dropped});
  out->push_back({"transport.pulls_unknown_peer", c.pulls_unknown_peer});
  out->push_back({"transport.pings_rx", c.pings_rx});
  out->push_back({"transport.byes_rx", c.byes_rx});
  out->push_back({"transport.malformed_rx", c.malformed_rx});
  out->push_back({"transport.slots_tx", c.slots_tx});
  out->push_back({"transport.drop_backpressure", c.drop_backpressure});
  out->push_back({"transport.drop_dead_peer", c.drop_dead_peer});
  out->push_back({"transport.drop_fault", c.drop_fault});
  out->push_back({"transport.evictions", c.evictions});
}

void DatagramServerTransport::SnapshotMetrics(
    obs::MetricsRegistry* registry) const {
  std::vector<obs::CounterSample> samples;
  AppendCounterSamples(&samples);
  for (const obs::CounterSample& s : samples) {
    registry->GetCounter(s.name)->Set(s.value);
  }
  // Gauge, not counter: point-in-time, and kept out of the counter table
  // that frame-delta reconciliation sums over.
  registry->GetGauge("transport.peers")
      ->Set(static_cast<double>(peers_.size()));
}

}  // namespace bdisk::transport
