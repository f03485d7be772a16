#ifndef BDISK_TRANSPORT_DATAGRAM_TRANSPORT_H_
#define BDISK_TRANSPORT_DATAGRAM_TRANSPORT_H_

#include <sys/un.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/telemetry_bus.h"
#include "server/broadcast_server.h"
#include "transport/transport.h"
#include "transport/wire.h"

namespace bdisk::transport {

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

  /// Transport-level fault injection (not owned; null disables). Seeded
  /// from its own kTransportSalt stream — the plan's slot_loss /
  /// request_loss act at the wire here (a lost slot reaches *no* peer, a
  /// lost PULL never enters the queue), so serve mode zeroes those rates
  /// from the server-side plan to avoid applying the same fault twice.
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
  std::uint64_t peers_rejected = 0;  // HELLOs refused: no sender (cap,
                                     // fds, or an unreachable source).
  std::uint64_t pulls_rx = 0;        // PULLs received (pre fault judge).
  std::uint64_t pulls_fault_dropped = 0;  // PULLs judged lost on the wire.
  std::uint64_t pulls_unknown_peer = 0;   // PULLs from unconnected peers.
  std::uint64_t pings_rx = 0;
  std::uint64_t byes_rx = 0;
  std::uint64_t malformed_rx = 0;    // Datagrams ParseMessage rejected.
  std::uint64_t slots_tx = 0;        // Slot datagrams the kernel accepted.
  std::uint64_t drop_backpressure = 0;  // Slot sends refused EAGAIN/ENOBUFS.
  std::uint64_t drop_dead_peer = 0;  // Slot sends refused: peer socket gone.
  std::uint64_t drop_fault = 0;      // Slot fan-outs withheld by injection
                                     // (counted per peer that missed it).
  std::uint64_t evictions = 0;       // Peers forgotten by heartbeat deadline.
};

/// The live backend: a nonblocking AF_UNIX SOCK_DGRAM serving socket that
/// only receives, plus one sender socket per peer.
///
/// Pull direction (Transport): PULL datagrams arrive on the serving
/// socket, are fault-judged, and enter the server's queue via
/// SubmitRequest under the peer's stable trace client id. Broadcast
/// direction (BroadcastListener): every delivered slot is relayed as one
/// datagram per connected peer — the wire realization of the paper's "all
/// clients snoop the broadcast".
///
/// Each peer's sender is autobound (the kernel names it in the abstract
/// namespace) and connect()ed to the peer's reply path when its HELLO
/// arrives, so WELCOME / SLOT / STATS / FIN leave with send() and the
/// kernel resolves the reply path once per HELLO, not once per datagram.
/// The client connect()s its reply socket back to the WELCOME's sender,
/// which keeps strangers out and exempts the sender from the receiver's
/// max_dgram_qlen. The serving socket sends only `FIN full` to a HELLO it
/// refuses.
///
/// Single-threaded by design: the serve loop alternates Poll / slot ticks
/// / EvictDeadPeers, and every call takes the wall-clock explicitly so
/// tests drive deadlines without sleeping. Failure discipline is
/// drop-newest everywhere: a send the kernel refuses is dropped *and
/// counted by cause*, never retried and never blocking the slot cadence
/// (the one exception: STATS / FIN during an orderly goodbye get the same
/// bounded ~200ms retry as obs::DatagramFrameSink::WriteFinal, because
/// those are the reconciliation handshake).
///
/// Peer lifecycle: the first HELLO of an id gives the peer a sender (the
/// spare one Bind opened; a new spare is opened once the WELCOME is out,
/// keeping socket() off the handshake). Every HELLO connect()s that same
/// sender to the datagram's source address and resets the peer's slot
/// epoch (slots_tx_epoch = 0, matched by the client zeroing its tally on
/// WELCOME) — so after a crash and reconnect both sides agree on the
/// epoch even though the dead client's last epoch count died with it. The
/// sender is never replaced while the peer lives: a client connected to
/// it keeps receiving across a duplicate HELLO. A HELLO that gets no
/// sender (at max_peers, no socket to open, or a source it cannot
/// connect() to) is refused with `FIN full`. A send refused with
/// ECONNREFUSED does NOT evict: the peer keeps its identity (and
/// cumulative counters) so a quick restart reconciles; only the heartbeat
/// deadline forgets a peer, and forgetting closes its sender.
class DatagramServerTransport final : public Transport,
                                      public server::BroadcastListener {
 public:
  DatagramServerTransport() = default;
  ~DatagramServerTransport() override;

  DatagramServerTransport(const DatagramServerTransport&) = delete;
  DatagramServerTransport& operator=(const DatagramServerTransport&) = delete;

  /// Opens the spare sender, creates and binds the serving socket
  /// (replacing a socket file already at the path) and registers with
  /// `server` as a broadcast listener. `server` must outlive this object.
  /// Returns false and sets `error` on any socket failure or an oversized
  /// socket path.
  bool Bind(const DatagramServerOptions& options,
            server::BroadcastServer* server, std::string* error);

  /// Transport: in-process submissions ride the same queue path as wire
  /// PULLs (used by tests; bdisk_serve has no local client).
  server::SubmitResult SubmitPull(PageId page, std::uint32_t client) override;
  std::string Describe() const override;

  /// BroadcastListener: fan one delivered slot out to every peer.
  void OnBroadcast(PageId page, server::SlotKind kind,
                   sim::SimTime now) override;

  /// Drains every datagram currently queued on the socket, dispatching
  /// HELLO/PULL/PING/BYE. `wall_now` stamps heartbeat refreshes. Returns
  /// the number of datagrams consumed (including malformed ones).
  int Poll(double wall_now);

  /// Forgets peers not heard from within the heartbeat deadline (a
  /// best-effort `FIN evicted` is sent first). Returns evictions.
  int EvictDeadPeers(double wall_now);

  /// Orderly drain: sends `FIN <reason>` to every peer (bounded retry),
  /// forgets them all, closes every socket and unlinks the serving path.
  /// Idempotent.
  void Shutdown(const std::string& reason);

  /// Blocks until the socket is readable or `timeout_ms` passes. Returns
  /// true when readable — the serve loop's idle wait between slot ticks.
  bool WaitReadable(int timeout_ms) const;

  std::size_t PeerCount() const { return peers_.size(); }
  const TransportCounters& counters() const { return counters_; }
  std::uint64_t SlotSeq() const { return slot_seq_; }

  /// The server's view of one peer (null when unknown) — what STATS sends.
  const wire::PeerStats* FindPeerStats(const std::string& client_id) const;

  /// Appends the `transport.*` lifetime counters as telemetry probe
  /// samples. Names match SnapshotMetrics keys exactly, so bdisk_top
  /// --check --snapshot reconciles serve-mode frame streams for free.
  void AppendCounterSamples(std::vector<obs::CounterSample>* out) const;

  /// Writes the same counters (plus a transport.peers gauge) into
  /// `registry` under `transport.*` for the serve tool's metrics
  /// snapshot. These keys exist only in serve mode: simulation snapshots
  /// never carry them, so bdisk_compare's key-symmetry rule keeps holding
  /// for sim baselines.
  void SnapshotMetrics(obs::MetricsRegistry* registry) const;

 private:
  /// Owns one sender socket; closes it when destroyed. Move-only.
  class SenderSocket {
   public:
    SenderSocket() = default;
    SenderSocket(SenderSocket&& other) noexcept;
    SenderSocket& operator=(SenderSocket&& other) noexcept;
    SenderSocket(const SenderSocket&) = delete;
    SenderSocket& operator=(const SenderSocket&) = delete;
    ~SenderSocket();

    /// Opens a nonblocking datagram socket autobound to a kernel-chosen
    /// abstract name (only a named socket can be connect()ed to). Returns
    /// false, holding nothing, when the kernel refuses.
    bool Open();
    int fd() const { return fd_; }

   private:
    int fd_ = -1;
  };

  struct Peer {
    SenderSocket sender;  // Connected to the peer's reply path.
    double last_heard = 0.0;
    std::uint32_t trace_client = 0;
    wire::PeerStats stats;
  };

  enum class SendOutcome { kOk, kBackpressure, kDeadPeer };

  void OnHello(const std::string& client_id, const sockaddr_un& from,
               socklen_t from_len, double wall_now);
  void OnPull(const wire::Message& msg, double wall_now);
  void OnBye(const std::string& client_id);

  SendOutcome SendTo(const Peer& peer, const std::string& payload) const;
  /// Bounded-retry send for the goodbye handshake (STATS / FIN).
  bool SendFinal(const Peer& peer, const std::string& payload) const;

  int fd_ = -1;  // The serving socket.
  std::string path_;
  SenderSocket spare_;  // The next new peer's sender, opened in advance.
  DatagramServerOptions options_;
  server::BroadcastServer* server_ = nullptr;  // Not owned.
  // Keyed by client id; std::map for deterministic fan-out order.
  std::map<std::string, Peer> peers_;
  std::uint32_t next_trace_client_ = kFirstPeerTraceClient;
  std::uint64_t slot_seq_ = 0;
  TransportCounters counters_;
  std::string scratch_;  // Reused datagram format buffer.
};

}  // namespace bdisk::transport

#endif  // BDISK_TRANSPORT_DATAGRAM_TRANSPORT_H_
