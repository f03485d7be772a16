#include "core/counter_table.h"

#include <cstdint>
#include <iterator>

#include "server/pull_queue.h"

namespace bdisk::core {

namespace {

using S = const CounterSources&;

/// The component a row reads; the row is exported only when it is present.
/// kFaults reads the server's injector, server and queue; kMcFaults the
/// MC's robustness counters under an active plan.
enum Source : std::uint8_t {
  kServer, kMc, kVc, kUpdates, kFaults, kMcFaults, kWire, kBus, kKernel
};

struct CounterRow {
  const char* name;  // The bdisk-metrics-v1 snapshot key.
  Source source;
  bool probe;  // Carried by the frame probe.
  std::uint64_t (*read)(S);
};

const server::PullQueue& Q(S s) { return s.server->queue(); }

#define ROW(name, source, probe, read) \
  { name, source, probe, [](S s) -> std::uint64_t { return read; } }

/// Every lifetime counter sim and serve export, spelled once. The frame
/// probe carries its rows in table order.
constexpr CounterRow kCounterTable[] = {
    ROW("server.slots_total", kServer, false, s.server->TotalSlots()),
    ROW("server.slots_push", kServer, true, s.server->PushSlots()),
    ROW("server.slots_pull", kServer, true, s.server->PullSlots()),
    ROW("server.slots_idle", kServer, true, s.server->IdleSlots()),
    ROW("server.queue.submitted", kServer, true, Q(s).SubmittedCount()),
    ROW("server.queue.accepted", kServer, true, Q(s).AcceptedCount()),
    ROW("server.queue.coalesced", kServer, true, Q(s).CoalescedCount()),
    ROW("server.queue.dropped", kServer, true, Q(s).DroppedCount()),

    ROW("client.mc.accesses", kMc, true, s.mc->TotalAccesses()),
    ROW("client.mc.cache.hits", kMc, false, s.mc->cache().Hits()),
    ROW("client.mc.cache.misses", kMc, false, s.mc->cache().Misses()),
    ROW("client.mc.cache.evictions", kMc, false, s.mc->cache().Evictions()),
    ROW("client.mc.cache.removals", kMc, false, s.mc->cache().Removals()),
    ROW("client.mc.pulls_sent", kMc, true, s.mc->PullRequestsSent()),
    ROW("client.mc.retries_sent", kMc, false, s.mc->RetriesSent()),
    ROW("client.mc.prefetches", kMc, false, s.mc->Prefetches()),
    ROW("client.mc.invalidations_seen", kMc, false, s.mc->InvalidationsSeen()),
    ROW("client.vc.requests_generated", kVc, false, s.vc->RequestsGenerated()),
    ROW("client.vc.cache_hits", kVc, false, s.vc->CacheHits()),
    ROW("client.vc.filtered", kVc, false, s.vc->FilteredByThreshold()),
    ROW("client.vc.submitted", kVc, false, s.vc->RequestsSubmitted()),
    ROW("server.updates_generated", kUpdates, false, s.updates->UpdateCount()),
    // fault.* rows exist only while a plan is active: bdisk_compare treats
    // a key in one snapshot but not the other as a regression, and
    // fault-free snapshots must stay comparable to the pre-fault baseline.
    ROW("fault.slots_lost", kFaults, true, s.server_faults->SlotsLost()),
    ROW("fault.slots_corrupted", kFaults, true,
        s.server_faults->SlotsCorrupted()),
    ROW("fault.requests_lost", kFaults, true, s.server_faults->RequestsLost()),
    ROW("fault.requests_delayed", kFaults, false,
        s.server_faults->RequestsDelayed()),
    ROW("fault.requests_shed", kFaults, true, Q(s).ShedCount()),
    ROW("fault.requests_dropped_outage", kFaults, true, Q(s).OutageDropCount()),
    ROW("fault.outage_slots", kFaults, false, s.server->OutageSlots()),
    ROW("fault.outages_started", kFaults, false, s.server->OutagesStarted()),
    ROW("fault.degraded_enters", kFaults, false, s.server->DegradedEnters()),
    ROW("fault.degraded_exits", kFaults, false, s.server->DegradedExits()),
    ROW("fault.mc.timeouts", kMcFaults, false, s.mc->TimeoutsFired()),
    ROW("fault.mc.abandoned", kMcFaults, false, s.mc->Abandoned()),
    ROW("fault.mc.fallbacks", kMcFaults, false, s.mc->Fallbacks()),
    ROW("fault.mc.probes", kMcFaults, false, s.mc->ProbesSent()),
    ROW("fault.mc.backchannel_deaths", kMcFaults, false,
        s.mc->BackchannelDeaths()),
    ROW("fault.mc.backchannel_recoveries", kMcFaults, false,
        s.mc->BackchannelRecoveries()),

    ROW("transport.hellos", kWire, true, s.transport->hellos),
    ROW("transport.reconnects", kWire, true, s.transport->reconnects),
    ROW("transport.peers_rejected", kWire, true, s.transport->peers_rejected),
    ROW("transport.pulls_rx", kWire, true, s.transport->pulls_rx),
    ROW("transport.pulls_fault_dropped", kWire, true,
        s.transport->pulls_fault_dropped),
    ROW("transport.pulls_unknown_peer", kWire, true,
        s.transport->pulls_unknown_peer),
    ROW("transport.pulls_bad_page", kWire, true, s.transport->pulls_bad_page),
    ROW("transport.pings_rx", kWire, true, s.transport->pings_rx),
    ROW("transport.byes_rx", kWire, true, s.transport->byes_rx),
    ROW("transport.malformed_rx", kWire, true, s.transport->malformed_rx),
    ROW("transport.wrong_source_rx", kWire, true,
        s.transport->wrong_source_rx),
    ROW("transport.slots_tx", kWire, true, s.transport->slots_tx),
    ROW("transport.drop_backpressure", kWire, true,
        s.transport->drop_backpressure),
    ROW("transport.drop_dead_peer", kWire, true, s.transport->drop_dead_peer),
    ROW("transport.drop_fault", kWire, true, s.transport->drop_fault),
    ROW("transport.evictions", kWire, true, s.transport->evictions),

    ROW("obs.frames_emitted", kBus, false, s.bus->FramesEmitted()),
    ROW("obs.frames_dropped", kBus, false, s.bus->FramesDropped()),
    ROW("kernel.events_executed", kKernel, false, s.kernel->EventsExecuted()),
    ROW("kernel.periodic_rearms", kKernel, false, s.kernel->PeriodicRearms()),
    ROW("kernel.lazy_arrivals_fused", kKernel, false,
        s.kernel->LazyArrivalsFused()),
    ROW("kernel.lazy_drains", kKernel, false, s.kernel->LazyDrains()),
    ROW("kernel.stale_discarded", kKernel, false, s.kernel->StaleDiscarded()),
    ROW("kernel.periodic_spans", kKernel, false, s.kernel->PeriodicSpans()),
};

#undef ROW

bool Present(Source source, S s) {
  const void* const components[] = {  // Indexed by Source.
      s.server,         s.mc,
      s.vc,             s.updates,
      s.server_faults,  s.mc != nullptr ? s.server_faults : nullptr,
      s.transport,      s.bus,
      s.kernel};
  return components[source] != nullptr;
}

}  // namespace

void ProbeCounters(const CounterSources& sources,
                   std::vector<obs::CounterSample>* out) {
  out->clear();
  for (const CounterRow& row : kCounterTable) {
    if (row.probe && Present(row.source, sources)) {
      out->push_back({row.name, row.read(sources)});
    }
  }
}

void SnapshotCounters(const CounterSources& sources,
                      obs::MetricsRegistry* registry) {
  for (const CounterRow& row : kCounterTable) {
    if (Present(row.source, sources)) {
      registry->GetCounter(row.name)->Set(row.read(sources));
    }
  }
}

}  // namespace bdisk::core
