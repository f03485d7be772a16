#ifndef BDISK_CORE_COUNTER_TABLE_H_
#define BDISK_CORE_COUNTER_TABLE_H_

#include <vector>

#include "client/measured_client.h"
#include "client/virtual_client.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/telemetry_bus.h"
#include "server/broadcast_server.h"
#include "server/update_generator.h"
#include "sim/simulator.h"
#include "transport/datagram_transport.h"

namespace bdisk::core {

/// The components the counter table reads. A null member is an absent
/// component, whose rows are not exported: System sets the in-process
/// clients, bdisk_serve the wire's counters. `server_faults` (null while
/// no server-side plan is active) gates every fault.* row.
struct CounterSources {
  const sim::Simulator* kernel = nullptr;
  const server::BroadcastServer* server = nullptr;
  const fault::FaultInjector* server_faults = nullptr;
  const client::MeasuredClient* mc = nullptr;
  const client::VirtualClient* vc = nullptr;
  const server::UpdateGenerator* updates = nullptr;
  const transport::TransportCounters* transport = nullptr;
  const obs::TelemetryBus* bus = nullptr;
};

/// The lifetime counters the frame probe carries, for every row present
/// in `sources`, in table order: server, MC, fault, transport, written
/// over `*out` (a telemetry bus probe's form: no allocation once `*out`
/// has held them). Each name is also a SnapshotCounters key, so
/// `bdisk_top --check --snapshot` reconciles a frame stream against the
/// final snapshot without a mapping table.
void ProbeCounters(const CounterSources& sources,
                   std::vector<obs::CounterSample>* out);

/// ProbeCounters into a fresh vector, for one-off readers.
inline std::vector<obs::CounterSample> ProbeCounters(
    const CounterSources& sources) {
  std::vector<obs::CounterSample> samples;
  ProbeCounters(sources, &samples);
  return samples;
}

/// Sets every row present in `sources` as a counter in `registry`.
void SnapshotCounters(const CounterSources& sources,
                      obs::MetricsRegistry* registry);

}  // namespace bdisk::core

#endif  // BDISK_CORE_COUNTER_TABLE_H_
