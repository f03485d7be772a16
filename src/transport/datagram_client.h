#ifndef BDISK_TRANSPORT_DATAGRAM_CLIENT_H_
#define BDISK_TRANSPORT_DATAGRAM_CLIENT_H_

#include <sys/socket.h>
#include <sys/un.h>

#include <cstdint>
#include <string>
#include <string_view>
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
  /// epoch binds a fresh `<dir>/<client_id>.<epoch>` path, the HELLO's
  /// source and where its WELCOME lands, so a reply meant for a crashed
  /// epoch never reaches the next one.
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
  std::uint64_t malformed_rx = 0;      // Refused: unparsable, not from the
                                       // serving path, a descriptor where
                                       // none belongs, or no pipe read end
                                       // on a WELCOME.
  std::uint64_t reconnects = 0;        // Connects beyond the first.
};

/// One client endpoint of the bdisk-wire-v1 protocol: a bound nonblocking
/// AF_UNIX datagram socket for the handshake and the uplink, plus the
/// read end of the downlink pipe the server hands over in each WELCOME.
/// Crash and reconnect are first-class operations (Crash() drops the
/// socket and the pipe but keeps the counters, exactly what a restarting
/// process observes; Connect() after it starts a new epoch on a fresh
/// reply path).
///
/// HELLO / PULL / PING / BYE go out with sendto() to the server path. The
/// socket takes only WELCOME and FIN datagrams whose source is that path
/// (compared as a string, so name the serving socket as the server bound
/// it), and a descriptor only on such a WELCOME: exactly one, a pipe read
/// end.
/// Every other received descriptor is closed. The pipe carries SLOT,
/// STATS and FIN lines; it is read in bulk and split on '\n', with at
/// most one partial line carried between reads. A later WELCOME drains
/// the old pipe into the old epoch before the new one starts. EOF on the
/// pipe with no newer WELCOME queued means the server dropped the peer,
/// and closes the channel as a FIN does. Every refusal, on either
/// carrier, counts once in malformed_rx.
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

  /// Simulates (or implements) process death: closes the pipe, and closes
  /// and unlinks the epoch socket, without BYE. Counters survive — they
  /// belong to the measuring harness, not the dead connection.
  void Crash();

  /// Orderly goodbye: sends BYE, then waits up to `timeout_ms` for the
  /// server's STATS (into `*stats` when non-null). Closes the channel
  /// either way; returns true when STATS arrived.
  bool Goodbye(wire::PeerStats* stats, int timeout_ms);

  /// Sends one PULL for `page`. Returns false when the kernel refused it
  /// (counted in pulls_send_failed) — caller decides whether to retry.
  bool SendPull(PageId page);

  /// Sends one heartbeat PING (best-effort).
  void SendPing();

  /// Drains every message currently queued on the pipe and the socket,
  /// waiting up to `timeout_ms` for either to become readable.
  /// SLOT/WELCOME/STATS/FIN are tallied (and WELCOME resets the epoch
  /// slot count); every accepted message is appended to `out` when
  /// non-null. Returns the number of messages consumed, refused ones
  /// included. A FIN, or the pipe's EOF, closes the channel.
  int PollMessages(int timeout_ms, std::vector<wire::Message>* out);

  const wire::Message& welcome() const { return welcome_; }
  const ClientCounters& counters() const { return counters_; }
  const std::string& epoch_path() const { return path_; }

 private:
  bool BindEpochSocket(std::string* error);
  bool SendToServer(const std::string& payload) const;
  /// True when a datagram's source address is the serving path.
  bool FromServer(const sockaddr_un& from, socklen_t from_len) const;
  /// Takes one datagram from the socket; false when none is queued.
  bool TakeDatagram(std::vector<wire::Message>* out, int* consumed);
  /// Reads `pipe` until it would block; true when it reached EOF.
  bool DrainPipe(int pipe, std::vector<wire::Message>* out, int* consumed);
  /// Splits one read's bytes into lines, carrying a partial one.
  void TakeBytes(std::string_view bytes, std::vector<wire::Message>* out,
                 int* consumed);
  void TakeLine(std::string_view line, std::vector<wire::Message>* out);
  /// Counts a carried partial line as malformed and drops it.
  void DropPartialLine(int* consumed);
  /// A new WELCOME's pipe: drains the old one into the old epoch first.
  void SwitchPipe(int pipe, std::vector<wire::Message>* out, int* consumed);
  void Close();

  int fd_ = -1;            // This epoch's reply socket.
  int pipe_ = -1;          // The downlink's read end; -1 until a WELCOME.
  std::string line_;       // A partial downlink line, carried between reads.
  bool discarding_ = false;  // Skipping an overlong line up to its '\n'.
  std::string path_;       // This epoch's bound reply path.
  sockaddr_un server_{};   // The serving socket every request goes to.
  DatagramClientOptions options_;
  std::uint64_t epoch_ = 0;  // Bumped per Connect for distinct bind paths.
  bool connected_once_ = false;
  wire::Message welcome_;
  ClientCounters counters_;
  std::string scratch_;
};

}  // namespace bdisk::transport

#endif  // BDISK_TRANSPORT_DATAGRAM_CLIENT_H_
