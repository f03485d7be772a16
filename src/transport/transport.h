#ifndef BDISK_TRANSPORT_TRANSPORT_H_
#define BDISK_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <string>

#include "broadcast/page.h"
#include "server/broadcast_server.h"
#include "server/pull_queue.h"

namespace bdisk::transport {

using broadcast::PageId;

/// The transport seam between pull-submitting clients and the broadcast
/// server's event kernel.
///
/// Backchannel direction: a client hands its pull request to the
/// transport, which carries it to the server's pull queue. Frontchannel
/// direction: the server's `BroadcastListener` fan-out *is* the broadcast
/// medium — an in-process listener hears slots directly (the sim backend),
/// while the live backend registers itself as a listener and relays each
/// slot onto the wire as one line written to each connected peer's
/// downlink pipe (datagram_transport.h).
///
/// Two backends exist:
///   - SimTransport (below): in-process forwarding, bit-identical to the
///     pre-seam call chain — the simulation default.
///   - DatagramServerTransport / DatagramClientChannel: a real nonblocking
///     UNIX-datagram socket for the handshake and the pulls, one pipe per
///     peer for the slots, with heartbeat deadlines, dead-peer eviction,
///     and reconnect (the `bdisk_serve` / `bdisk_load` pair).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Carries one pull request from `client` (an obs trace client id) to
  /// the server, arriving now. Returns the pull queue's verdict.
  virtual server::SubmitResult SubmitPull(PageId page,
                                          std::uint32_t client) = 0;

  /// Human-readable backend name for banners and provenance.
  virtual std::string Describe() const = 0;
};

/// The in-process simulation backend: SubmitPull forwards straight to
/// BroadcastServer::SubmitRequest — the exact call clients made before the
/// seam existed (same barrier, same fault judgement, same trace records),
/// so simulated trajectories are bit-identical by construction. No state,
/// no randomness, no events.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(server::BroadcastServer* server);

  server::SubmitResult SubmitPull(PageId page, std::uint32_t client) override;
  std::string Describe() const override { return "sim"; }

 private:
  server::BroadcastServer* server_;  // Not owned.
};

}  // namespace bdisk::transport

#endif  // BDISK_TRANSPORT_TRANSPORT_H_
