#ifndef BDISK_TRANSPORT_DATAGRAM_CLIENT_H_
#define BDISK_TRANSPORT_DATAGRAM_CLIENT_H_

#include <sys/socket.h>
#include <sys/un.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/backoff.h"
#include "sim/rng.h"
#include "transport/wire.h"

namespace bdisk::transport {

using broadcast::PageId;

struct DatagramClientOptions {
  std::string server_path;  // The serve socket to talk to.
  std::string client_id;    // Wire identity (wire::ValidClientId).
  /// Directory for this client's own bound reply sockets. Each connection
  /// epoch binds a fresh `<dir>/<client_id>.<epoch>` path — a crashed
  /// epoch's socket is gone, so the server's sends to it fail fast
  /// (ECONNREFUSED → drop_dead_peer) instead of landing in a dead buffer.
  std::string socket_dir = ".";
  /// HELLO retry pacing (wall seconds). Bounded exponential backoff with
  /// deterministic jitter from `rng` — the PR-5 retry engine on real time.
  fault::BackoffPolicy backoff{/*base=*/0.05, /*multiplier=*/2.0,
                               /*cap=*/1.0, /*jitter=*/0.1};
  std::uint32_t max_connect_attempts = 10;
};

/// Client-side accounting mirrored against the server's STATS by
/// `bdisk_load --reconcile`.
struct ClientCounters {
  std::uint64_t hellos_sent = 0;
  std::uint64_t pulls_sent = 0;        // sendto accepted (cumulative).
  std::uint64_t pulls_send_failed = 0; // sendto refused (any cause).
  std::uint64_t pings_sent = 0;
  std::uint64_t slots_rx_epoch = 0;    // SLOTs since the last WELCOME.
  std::uint64_t slots_rx_total = 0;
  std::uint64_t welcomes_rx = 0;
  std::uint64_t stats_rx = 0;
  std::uint64_t fins_rx = 0;
  std::uint64_t malformed_rx = 0;      // Unparsable, or not from the
                                       // sender this reply socket trusts.
  std::uint64_t reconnects = 0;        // Connects beyond the first.
};

/// One client endpoint of the bdisk-wire-v1 protocol: a bound nonblocking
/// AF_UNIX datagram socket plus the HELLO/WELCOME handshake, with crash
/// and reconnect as first-class operations (Crash() drops the socket but
/// keeps the counters, exactly what a restarting process observes;
/// Connect() after it starts a new epoch on a fresh reply path).
///
/// The socket is never connect()ed to the serving socket: HELLO / PULL /
/// PING / BYE go out with sendto() to the server path. Until the epoch's
/// first WELCOME it accepts only WELCOME or FIN, from anyone who can reach
/// the reply path; that WELCOME's source is the server's sender for this
/// peer, and the socket connect()s to it. From then on the kernel refuses
/// every other sender, and a datagram queued from one before the
/// connect() is dropped. Every drop counts in malformed_rx.
///
/// Single-threaded, wall-clock driven; all waiting is bounded poll().
class DatagramClientChannel {
 public:
  DatagramClientChannel() = default;
  ~DatagramClientChannel();

  DatagramClientChannel(const DatagramClientChannel&) = delete;
  DatagramClientChannel& operator=(const DatagramClientChannel&) = delete;

  /// Binds a fresh epoch socket and runs the HELLO -> WELCOME handshake,
  /// retrying HELLO under the backoff policy until WELCOME arrives or
  /// attempts run out. `rng` paces the jitter (deterministic per seed).
  /// On success the WELCOME parameters are available via welcome().
  bool Connect(const DatagramClientOptions& options, sim::Rng* rng,
               std::string* error);

  /// True between a successful Connect and Crash/Close/FIN.
  bool Connected() const { return fd_ >= 0; }

  /// Simulates (or implements) process death: closes and unlinks the
  /// epoch socket without BYE. Counters survive — they belong to the
  /// measuring harness, not the dead connection.
  void Crash();

  /// Orderly goodbye: sends BYE, then waits up to `timeout_ms` for the
  /// server's STATS (into `*stats` when non-null). Closes the socket
  /// either way; returns true when STATS arrived.
  bool Goodbye(wire::PeerStats* stats, int timeout_ms);

  /// Sends one PULL for `page`. Returns false when the kernel refused it
  /// (counted in pulls_send_failed) — caller decides whether to retry.
  bool SendPull(PageId page);

  /// Sends one heartbeat PING (best-effort).
  void SendPing();

  /// Drains every datagram currently queued, waiting up to `timeout_ms`
  /// for the first. SLOT/WELCOME/STATS/FIN are tallied (and WELCOME
  /// resets the epoch slot count); every parsed message is appended to
  /// `out` when non-null. Returns the number of datagrams consumed. A
  /// FIN closes the channel.
  int PollMessages(int timeout_ms, std::vector<wire::Message>* out);

  const wire::Message& welcome() const { return welcome_; }
  const ClientCounters& counters() const { return counters_; }
  const std::string& epoch_path() const { return path_; }

 private:
  bool BindEpochSocket(std::string* error);
  bool SendToServer(const std::string& payload) const;
  /// The reply socket's trust rule (see the class comment); true when
  /// `msg` from `from` may be taken.
  bool Admit(const wire::Message& msg, const sockaddr_un& from,
             socklen_t from_len);
  void CloseSocket();

  int fd_ = -1;
  std::string path_;       // This epoch's bound reply path.
  sockaddr_un server_{};   // The serving socket every request goes to.
  sockaddr_un sender_{};   // The WELCOME's source: this epoch's sender.
  socklen_t sender_len_ = 0;  // 0 until this epoch's first WELCOME.
  DatagramClientOptions options_;
  std::uint64_t epoch_ = 0;  // Bumped per Connect for distinct bind paths.
  bool connected_once_ = false;
  wire::Message welcome_;
  ClientCounters counters_;
  std::string scratch_;
};

}  // namespace bdisk::transport

#endif  // BDISK_TRANSPORT_DATAGRAM_CLIENT_H_
