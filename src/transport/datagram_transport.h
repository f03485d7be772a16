#ifndef BDISK_TRANSPORT_DATAGRAM_TRANSPORT_H_
#define BDISK_TRANSPORT_DATAGRAM_TRANSPORT_H_

#include <sys/un.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "fault/fault_injector.h"
#include "server/broadcast_server.h"
#include "transport/wire.h"

namespace bdisk::transport {

using broadcast::PageId;

/// First obs trace client id handed to a wire peer. Ids 0 and 1 belong to
/// the in-process measured/virtual clients (obs/trace_sink.h), so wire
/// peers start above them and stay distinguishable in traces.
inline constexpr std::uint32_t kFirstPeerTraceClient = 2;

struct DatagramServerOptions {
  std::string socket_path;

  /// Wall-clock seconds without hearing from a peer (any datagram counts)
  /// before EvictDeadPeers forgets it. <= 0 disables eviction.
  double heartbeat_deadline = 5.0;

  /// Hard cap on concurrently connected peers; HELLOs beyond it are
  /// refused with `FIN full`.
  std::uint32_t max_peers = 64;

  /// Advertised in WELCOME so clients can draw pages and pace themselves.
  std::uint32_t db_size = 0;
  std::uint32_t cycle_len = 0;
  std::uint32_t slot_us = 0;

  /// Transport-level fault injection (not owned; null disables): the
  /// core::ServerStack's wire_faults(). The plan's slot_loss /
  /// request_loss act at the wire here (a lost slot reaches *no* peer, a
  /// lost PULL never enters the queue), and the stack zeroes those rates
  /// from the server-side plan so no fault applies twice.
  fault::FaultInjector* injector = nullptr;
};

/// Aggregate wire accounting across all peers (per-peer splits live in
/// each peer's wire::PeerStats and come back to the client via STATS).
/// Every drop has exactly one cause counter, which is what lets
/// `bdisk_load --reconcile` check sends == receipts + drops with equality
/// rather than tolerance.
struct TransportCounters {
  std::uint64_t hellos = 0;          // HELLOs accepted (first + reconnects).
  std::uint64_t reconnects = 0;      // HELLOs beyond a peer's first.
  std::uint64_t peers_rejected = 0;  // HELLOs refused: no downlink (cap,
                                     // fds, or a WELCOME the kernel refused).
  std::uint64_t pulls_rx = 0;        // PULLs received (pre fault judge).
  std::uint64_t pulls_fault_dropped = 0;  // PULLs judged lost on the wire.
  std::uint64_t pulls_unknown_peer = 0;   // PULLs from unconnected peers.
  std::uint64_t pulls_bad_page = 0;  // PULLs refused: page >= db_size.
  std::uint64_t pings_rx = 0;
  std::uint64_t byes_rx = 0;
  std::uint64_t malformed_rx = 0;    // Datagrams ParseMessage rejected.
  std::uint64_t wrong_source_rx = 0;  // PULL/PING/BYE naming a connected
                                      // peer, sent from another address.
  std::uint64_t slots_tx = 0;        // Slot lines the kernel accepted.
  std::uint64_t drop_backpressure = 0;  // Slot writes refused EAGAIN.
  std::uint64_t drop_dead_peer = 0;  // Slot writes refused: reader gone.
  std::uint64_t drop_fault = 0;      // Slot fan-outs withheld by injection
                                     // (counted per peer that missed it).
  std::uint64_t evictions = 0;       // Peers forgotten by heartbeat deadline.
};

/// The live wire: a nonblocking AF_UNIX SOCK_DGRAM serving socket for the
/// handshake and the uplink, plus one downlink pipe per peer.
///
/// Pull direction: PULL datagrams arrive on the serving socket, are
/// fault-judged, and enter the server's queue via SubmitRequest under the
/// peer's stable trace client id. Broadcast direction
/// (BroadcastListener): every delivered slot is relayed as one
/// `\n`-terminated line written to each connected peer's pipe — the wire
/// realization of the paper's "all clients snoop the broadcast".
///
/// Source rule: a peer is the address its last accepted HELLO came from.
/// A PULL, PING or BYE naming a connected peer from any other address is
/// refused and counted once, in wrong_source_rx alone. A HELLO for a known
/// id from a new address is a reconnect and takes the peer over: that is
/// how a crashed client comes back (ROBUSTNESS.md §7).
///
/// Every HELLO gets a fresh nonblocking pipe: the WELCOME datagram, sent
/// from the serving socket to the HELLO's source, carries the read end as
/// its one SCM_RIGHTS descriptor, and the server keeps only the write end.
/// SLOT, STATS and FIN then leave as one write() each. A line is far below
/// PIPE_BUF, so the kernel takes it whole or refuses it with EAGAIN, and a
/// pipe is FIFO, so STATS follows the peer's last SLOT. The serving socket
/// sends only WELCOME and the `FIN full` of a refused HELLO.
///
/// Single-threaded by design: the serve loop alternates Poll / slot ticks
/// / EvictDeadPeers, and every call takes the wall-clock explicitly so
/// tests drive deadlines without sleeping. Failure discipline is
/// drop-newest everywhere: a write the kernel refuses is dropped *and
/// counted by cause*, never retried and never blocking the slot cadence
/// (the one exception: STATS / FIN during an orderly goodbye get the same
/// bounded ~200ms retry as obs::DatagramFrameSink::WriteFinal, because
/// those are the reconciliation handshake).
///
/// Peer lifecycle: every HELLO resets the peer's slot epoch
/// (slots_tx_epoch = 0, matched by the client zeroing its tally on
/// WELCOME) — so after a crash and reconnect both sides agree on the
/// epoch even though the dead client's last epoch count died with it. A
/// later HELLO from a known id (a duplicate or a reconnect) sends its new
/// WELCOME before closing the old write end, so nothing reaches the old
/// pipe after the new WELCOME leaves. A HELLO that gets no pipe (at
/// max_peers, or out of descriptors) or whose WELCOME the kernel refuses
/// is answered with `FIN full`. A write refused with EPIPE (the reader is
/// gone) does NOT evict: the peer keeps its identity (and cumulative
/// counters) so a quick restart reconciles; only the heartbeat deadline
/// forgets a peer, and forgetting closes its pipe.
class DatagramServerTransport final : public server::BroadcastListener {
 public:
  DatagramServerTransport() = default;
  ~DatagramServerTransport() override;

  DatagramServerTransport(const DatagramServerTransport&) = delete;
  DatagramServerTransport& operator=(const DatagramServerTransport&) = delete;

  /// Creates and binds the serving socket (replacing a socket file
  /// already at the path) and registers with `server` as a broadcast
  /// listener. `server` must outlive this object. Also sets SIGPIPE to
  /// SIG_IGN for the whole process: Linux has no per-call or
  /// per-descriptor way to keep a pipe write to a vanished reader from
  /// raising it, and its default action would kill the server when a
  /// client dies. Returns false and sets `error` on any socket failure or
  /// an oversized socket path.
  bool Bind(const DatagramServerOptions& options,
            server::BroadcastServer* server, std::string* error);

  /// BroadcastListener: fan one delivered slot out to every peer.
  void OnBroadcast(PageId page, server::SlotKind kind,
                   sim::SimTime now) override;

  /// Drains every datagram currently queued on the socket, dispatching
  /// HELLO/PULL/PING/BYE. `wall_now` stamps heartbeat refreshes. Returns
  /// the number of datagrams consumed (including malformed ones).
  int Poll(double wall_now);

  /// Forgets peers not heard from within the heartbeat deadline (a
  /// best-effort `FIN evicted` is written first). Returns evictions.
  int EvictDeadPeers(double wall_now);

  /// Orderly drain: writes `FIN <reason>` to every peer (bounded retry),
  /// forgets them all, closes every pipe and the serving socket, and
  /// unlinks the serving path. Idempotent.
  void Shutdown(const std::string& reason);

  /// Blocks until the serving socket is readable or `timeout_ms` passes.
  /// Returns true when readable — the serve loop's idle wait between slot
  /// ticks.
  bool WaitReadable(int timeout_ms) const;

  std::size_t PeerCount() const { return peers_.size(); }
  const TransportCounters& counters() const { return counters_; }
  std::uint64_t SlotSeq() const { return slot_seq_; }

  /// The server's view of one peer (null when unknown) — what STATS sends.
  const wire::PeerStats* FindPeerStats(const std::string& client_id) const;

 private:
  /// Owns the write end of one peer's downlink pipe; closes it when
  /// destroyed. Move-only.
  class Downlink {
   public:
    Downlink() = default;
    explicit Downlink(int fd) : fd_(fd) {}
    Downlink(Downlink&& other) noexcept;
    Downlink& operator=(Downlink&& other) noexcept;
    Downlink(const Downlink&) = delete;
    Downlink& operator=(const Downlink&) = delete;
    ~Downlink();

    int fd() const { return fd_; }

   private:
    int fd_ = -1;
  };

  struct Peer {
    /// True when a datagram's source is this peer's address: the same
    /// length and bytes, so unbound and abstract senders never match a
    /// path.
    bool SentFrom(const sockaddr_un& from, socklen_t from_len) const {
      return from_len == address_len &&
             std::memcmp(&from, &address, from_len) == 0;
    }

    Downlink downlink;  // The write end of the peer's current pipe.
    sockaddr_un address{};  // The source of the last accepted HELLO.
    socklen_t address_len = 0;
    double last_heard = 0.0;
    std::uint32_t trace_client = 0;
    wire::PeerStats stats;
  };

  enum class SendOutcome { kOk, kBackpressure, kDeadPeer };

  void OnHello(const std::string& client_id, const sockaddr_un& from,
               socklen_t from_len, double wall_now);
  void OnPull(const wire::Message& msg, Peer* peer);
  void OnBye(std::map<std::string, Peer>::iterator it);

  /// Sends the WELCOME in scratch_ to `to` with `pipe_read` attached.
  bool SendWelcome(int pipe_read, const sockaddr_un& to,
                   socklen_t to_len) const;
  /// One write() of `line` (a formatted message plus its '\n').
  static SendOutcome WriteLine(const Peer& peer, const std::string& line);
  /// Bounded-retry write for the goodbye handshake (STATS / FIN).
  static bool WriteFinal(const Peer& peer, const std::string& line);

  int fd_ = -1;  // The serving socket.
  DatagramServerOptions options_;
  server::BroadcastServer* server_ = nullptr;  // Not owned.
  // Keyed by client id; std::map for deterministic fan-out order.
  std::map<std::string, Peer> peers_;
  std::uint32_t next_trace_client_ = kFirstPeerTraceClient;
  std::uint64_t slot_seq_ = 0;
  TransportCounters counters_;
  std::string scratch_;  // Reused message format buffer.
};

}  // namespace bdisk::transport

#endif  // BDISK_TRANSPORT_DATAGRAM_TRANSPORT_H_
