#ifndef BDISK_TRANSPORT_WIRE_H_
#define BDISK_TRANSPORT_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "broadcast/page.h"
#include "server/broadcast_server.h"

namespace bdisk::transport::wire {

using broadcast::PageId;

/// `bdisk-wire-v1`: one text message per datagram or per downlink line,
/// space-separated fields, "bdw1" magic first. Human-readable on purpose
/// (socat / od debugging of a live socket beats a binary dump).
///
///   client -> server, datagrams to the serving socket:
///     bdw1 HELLO <client_id>            join / reconnect (source addr is
///                                       the client's bound reply path)
///     bdw1 PULL <client_id> <page>      one pull request
///     bdw1 PING <client_id>             heartbeat (any rx refreshes it)
///     bdw1 BYE <client_id>              orderly departure; server replies
///                                       STATS then forgets the peer
///   server -> client, datagrams from the serving socket:
///     bdw1 WELCOME <db_size> <cycle_len> <slot_us>
///                                       carries the read end of the
///                                       peer's downlink pipe as its one
///                                       SCM_RIGHTS descriptor
///     bdw1 FIN full                     HELLO refused
///   server -> client, '\n'-terminated lines on the downlink pipe:
///     bdw1 SLOT <seq> <page|-> <P|Q|I> <sim_time>
///     bdw1 STATS <pulls_rx> <slots_tx_epoch> <drop_backpressure>
///          <drop_dead_peer> <drop_fault> <pulls_fault_dropped> <reconnects>
///     bdw1 FIN <reason>                 eviction or graceful server drain
///
/// The message bytes are the same on either carrier; a line is the
/// message plus '\n', written with one write(). A WELCOME line on a pipe,
/// or a SLOT / STATS datagram, is malformed. Reconciliation leans on the
/// pipe being FIFO: STATS is written after every prior SLOT line to that
/// peer, and BYE arrives after every prior PULL, so the counter handshake
/// is exact, not approximate (see DatagramServerTransport for the epoch
/// accounting across client crashes).
inline constexpr char kMagic[] = "bdw1";

/// Every message fits in this many bytes, as a datagram or as a downlink
/// line with its '\n'; the longest, STATS, stays under 160.
inline constexpr std::size_t kMaxMessage = 512;

enum class MsgType : std::uint8_t {
  kHello,
  kWelcome,
  kPull,
  kPing,
  kBye,
  kSlot,
  kStats,
  kFin,
};

/// Per-peer counters carried by STATS (the server's view of one client,
/// used by `bdisk_load --reconcile` for the exact drop-accounting check).
struct PeerStats {
  std::uint64_t pulls_rx = 0;           // PULLs received (pre fault judge).
  std::uint64_t slots_tx_epoch = 0;     // Slot lines the kernel accepted
                                        // since the last HELLO.
  std::uint64_t drop_backpressure = 0;  // Slot writes refused EAGAIN.
  std::uint64_t drop_dead_peer = 0;     // Slot writes refused: peer gone.
  std::uint64_t drop_fault = 0;         // Slots withheld by fault injection.
  std::uint64_t pulls_fault_dropped = 0;  // PULLs judged lost on the wire.
  std::uint64_t reconnects = 0;         // HELLOs beyond the first.
};

/// One parsed message. Only the fields of the parsed type are meaningful.
struct Message {
  MsgType type = MsgType::kPing;
  std::string client_id;            // HELLO / PULL / PING / BYE.
  PageId page = broadcast::kNoPage; // PULL / SLOT ("-" encodes kNoPage).
  std::uint64_t seq = 0;            // SLOT.
  server::SlotKind kind = server::SlotKind::kIdle;  // SLOT.
  double sim_time = 0.0;            // SLOT.
  std::uint32_t db_size = 0;        // WELCOME.
  std::uint32_t cycle_len = 0;      // WELCOME.
  std::uint32_t slot_us = 0;        // WELCOME.
  PeerStats stats;                  // STATS.
  std::string reason;               // FIN.
};

/// True when `id` is usable on the wire: nonempty, at most 64 bytes, and
/// free of whitespace/control characters (fields are space-delimited).
bool ValidClientId(std::string_view id);

/// Formatters overwrite `*out` with one complete message (no
/// trailing newline). The scratch-string style keeps the per-slot fan-out
/// path allocation-free in steady state. The downlink appends the '\n'.
void FormatHello(const std::string& client_id, std::string* out);
void FormatWelcome(std::uint32_t db_size, std::uint32_t cycle_len,
                   std::uint32_t slot_us, std::string* out);
void FormatPull(const std::string& client_id, PageId page, std::string* out);
void FormatPing(const std::string& client_id, std::string* out);
void FormatBye(const std::string& client_id, std::string* out);
void FormatSlot(std::uint64_t seq, PageId page, server::SlotKind kind,
                double sim_time, std::string* out);
void FormatStats(const PeerStats& stats, std::string* out);
void FormatFin(const std::string& reason, std::string* out);

/// Parses one message (a datagram payload, or a line without its '\n').
/// Returns false (and sets `error`) on malformed input: wrong magic,
/// unknown verb, bad field count, or unparsable numbers. A false return
/// leaves `*out` unspecified.
bool ParseMessage(std::string_view datagram, Message* out, std::string* error);

}  // namespace bdisk::transport::wire

#endif  // BDISK_TRANSPORT_WIRE_H_
