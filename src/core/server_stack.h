#ifndef BDISK_CORE_SERVER_STACK_H_
#define BDISK_CORE_SERVER_STACK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/server_controller.h"
#include "broadcast/broadcast_program.h"
#include "broadcast/page_ranking.h"
#include "core/config.h"
#include "core/counter_table.h"
#include "fault/fault_injector.h"
#include "server/broadcast_server.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/access_pattern.h"

namespace bdisk::core {

/// Immutable artifacts derived purely from a SystemConfig: the canonical
/// access pattern, the push layout and broadcast program, and the
/// canonical value array (PIX when a push program exists, P otherwise).
/// Building them is the O(DbSize·log) part of System construction, and
/// none of it depends on the seed, so a sweep shares one copy across every
/// point and replication whose key fields agree (see ArtifactKey).
struct SystemArtifacts {
  explicit SystemArtifacts(workload::AccessPattern pattern)
      : canonical_pattern(std::move(pattern)) {}

  workload::AccessPattern canonical_pattern;
  broadcast::PushLayout layout;  // Empty for Pure-Pull.
  std::shared_ptr<const broadcast::BroadcastProgram> program;
  std::vector<double> canonical_values;
};

/// Salts of the fault injectors' RNG streams (seed ^ salt). Salted
/// streams, not Split()s of the root, so enabling a FaultPlan never shifts
/// the streams other components draw from. The server's injector uses
/// kFaultSalt in sim and serve alike, which keeps a serve-mode fault
/// trajectory equal to the simulated one for the same seed; serve mode's
/// wire-fault injector uses kTransportSalt.
inline constexpr std::uint64_t kFaultSalt = 0xFA017'1A7EC7EDULL;
inline constexpr std::uint64_t kTransportSalt = 0x7247'A11C'5EEDULL;

/// The serving half of the paper's system, built in one place for both of
/// its callers: the kernel, the BroadcastServer (program, bounded pull
/// queue, and the push/pull MUX weighted by PullBW), the fault plan's
/// server-side injector, and the PullBW controller. System adds the
/// in-process clients, which submit to the server directly; bdisk_serve
/// adds a DatagramServerTransport. The MUX trajectory is therefore the
/// same in both for the same seed and request arrivals.
class ServerStack {
 public:
  /// Where the clients are, which decides where the channel faults act.
  enum class Wire {
    /// In-process clients (System): the server applies the whole plan.
    kInProcess,
    /// Peers on a DatagramServerTransport (bdisk_serve): slot_loss,
    /// slot_corruption and request_loss act on the wire, judged by
    /// wire_faults(); the server applies the rest of the plan.
    kDatagram,
  };

  /// Validates `config` (aborting when it is invalid), then builds the
  /// server over `artifacts.program` with the root's first Split(), the
  /// fault split, and the ServerController when adaptive_pull_bw is set.
  /// `artifacts` must come from a config with the same ArtifactKey.
  ServerStack(const SystemConfig& config, const SystemArtifacts& artifacts,
              Wire wire);

  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  /// Starts the PullBW controller, if any. Events at equal sim times run
  /// in schedule order, so System calls this after starting its clients
  /// and the update generator, and before the client controller.
  void Start();

  sim::Simulator& simulator() { return simulator_; }
  const sim::Simulator& simulator() const { return simulator_; }
  server::BroadcastServer& server() { return *server_; }
  const server::BroadcastServer& server() const { return *server_; }

  /// The root stream, after the server's Split(). Callers split their
  /// own components' streams from it: the MC, then the VC, then updates.
  sim::Rng& root() { return root_; }

  /// Each null unless its share of the plan is active: the server's
  /// injector, and the wire's (kDatagram only) for the transport.
  fault::FaultInjector* server_faults() const { return server_faults_.get(); }
  fault::FaultInjector* wire_faults() const { return wire_faults_.get(); }

  /// Null unless adaptive_pull_bw is set.
  adaptive::ServerController* server_controller() const {
    return controller_.get();
  }

  /// The counter-table sources the stack owns: the server, and its fault
  /// injector when active. Callers add their clients or their wire.
  CounterSources counter_sources() const {
    return CounterSources{.server = server_.get(),
                          .server_faults = server_faults_.get()};
  }

 private:
  sim::Simulator simulator_;
  sim::Rng root_;
  std::unique_ptr<server::BroadcastServer> server_;
  std::unique_ptr<fault::FaultInjector> server_faults_;
  std::unique_ptr<fault::FaultInjector> wire_faults_;
  std::unique_ptr<adaptive::ServerController> controller_;
};

/// The first config key whose value differs from its default and that the
/// stack does not read (ConfigKey::served); empty when there is none.
/// bdisk_serve refuses such a key: only an in-process client, the update
/// generator or the flight recorder would read it.
std::string UnservedKey(const SystemConfig& config);

}  // namespace bdisk::core

#endif  // BDISK_CORE_SERVER_STACK_H_
