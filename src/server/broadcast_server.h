#ifndef BDISK_SERVER_BROADCAST_SERVER_H_
#define BDISK_SERVER_BROADCAST_SERVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "broadcast/broadcast_program.h"
#include "broadcast/page.h"
#include "broadcast/schedule_cursor.h"
#include "broadcast/span_table.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"
#include "obs/telemetry_bus.h"
#include "server/pull_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace bdisk::server {

/// What a broadcast slot carried, for accounting.
enum class SlotKind {
  kPush,  // A page from the periodic schedule.
  kPull,  // A page served from the backchannel queue.
  kIdle,  // Nothing (schedule padding, or Pure-Pull with an empty queue).
};

/// Receives every page that appears on the frontchannel. All clients snoop
/// the full broadcast: a page pulled by one client is visible to every
/// other (§2.3, "request/response with snooping").
class BroadcastListener {
 public:
  virtual ~BroadcastListener() = default;

  /// `page` finished transmission at time `now` (valid page, never kNoPage).
  /// `kind` says whether the slot was a scheduled push or a pull response.
  virtual void OnBroadcast(PageId page, SlotKind kind, sim::SimTime now) = 0;
};

/// The broadcast server: one page per broadcast unit, interleaving the
/// periodic Broadcast Disk program with responses to backchannel pulls.
///
/// The slot loop is the simulation's dominant event class (one event per
/// broadcast unit, forever), so it runs on the simulator's periodic-timer
/// fast path: the server registers itself once as the slot handler and
/// each boundary costs no heap push/pop and no allocation.
///
/// Slot semantics: the server picks the content of slot [t, t+1) at time t
/// (using the queue state at t) and the page is *delivered* to listeners at
/// t+1, when its transmission completes. Response times therefore include
/// the transmission unit, matching the paper's ~2-unit Pure-Pull floor.
///
/// The Push/Pull MUX (§2.2): when the pull queue is non-empty, a coin
/// weighted by `pull_bw` decides whether the slot serves the queue head or
/// the next page of the periodic program; an empty queue always yields the
/// slot back to the program, so `pull_bw` is an upper bound on pull
/// bandwidth. With no program at all (Pure-Pull) an empty queue idles the
/// slot.
class BroadcastServer : public sim::EventHandler {
 public:
  /// `program` may be empty (Pure-Pull). `pull_bw` in [0,1] is the PullBW
  /// fraction. `queue_capacity` is ServerQSize. The server schedules its
  /// own slot events on `simulator` starting at time Now()+1. The shared
  /// form lets many Systems in a sweep reference one immutable program.
  BroadcastServer(sim::Simulator* simulator,
                  std::shared_ptr<const broadcast::BroadcastProgram> program,
                  double pull_bw, std::uint32_t queue_capacity, sim::Rng rng);

  BroadcastServer(const BroadcastServer&) = delete;
  BroadcastServer& operator=(const BroadcastServer&) = delete;

  /// Registers a frontchannel listener (not owned; must outlive the server).
  void AddListener(BroadcastListener* listener);

  /// Current PullBW fraction.
  double pull_bw() const { return pull_bw_; }

  /// Re-tunes the PullBW fraction (in [0,1]) at runtime — the knob a
  /// dynamic controller adjusts (paper §6: "as the contention on the
  /// server increases, a dynamic algorithm might automatically reduce the
  /// pull bandwidth"). Takes effect from the next slot decision.
  void SetPullBw(double pull_bw);

  /// Attaches the system-wide structured trace (not owned; null detaches).
  /// Records every slot decision (at decision time t; delivery is at t+1)
  /// and every submit outcome, tagged with the submitting client.
  void SetTraceSink(obs::TraceSink* sink) { sink_ = sink; }

  /// Attaches the windowed telemetry collector (not owned; null detaches).
  /// Every slot decision and submit outcome is fed with its own timestamp
  /// and the queue depth after it. Same cost discipline as the trace sink:
  /// one pointer check when detached, no randomness, no events.
  void SetWindowedCollector(obs::WindowedCollector* collector) {
    collector_ = collector;
  }

  /// Attaches the streaming telemetry bus (not owned; null detaches) for
  /// degraded-mode enter/exit frames. Same cost discipline as the trace
  /// sink: one pointer check per hysteresis edge, no randomness, no
  /// events.
  void SetTelemetryBus(obs::TelemetryBus* bus) { telemetry_bus_ = bus; }

  /// Attaches the wall-clock phase profiler (not owned; null detaches).
  /// Frames: server.slot around each slot boundary, server.mux around the
  /// push/pull decision, server.queue around each queue submit, and
  /// fault.judge around injector judgements. Same cost discipline as the
  /// trace sink.
  void SetPhaseProfiler(obs::PhaseProfiler* profiler) {
    profiler_ = profiler;
  }

  /// Attaches the fault injector (not owned; null detaches — the default,
  /// and the zero-overhead path: one pointer check per slot and submit).
  /// With an injector attached the server (1) rolls each non-idle slot's
  /// fate (loss/corruption) before delivering to listeners, (2) drops
  /// backchannel arrivals lost in transit, delays others, and discards
  /// arrivals inside outage windows, and (3) runs degraded-mode admission
  /// control: when the queue depth crosses the plan's shed_hi watermark the
  /// server sheds arriving requests whose page has a near push slot and
  /// scales the MUX pull bandwidth by degraded_pull_bw, recovering at the
  /// shed_lo watermark (hysteresis).
  void SetFaultInjector(fault::FaultInjector* injector);

  /// Degraded-mode / outage accounting (all zero without an injector).
  bool InDegradedMode() const { return degraded_; }
  std::uint64_t DegradedEnters() const { return degraded_enters_; }
  std::uint64_t DegradedExits() const { return degraded_exits_; }
  std::uint64_t OutageSlots() const { return outage_slots_; }
  std::uint64_t OutagesStarted() const { return outages_started_; }

  /// Attaches a metrics registry (not owned). Resolves the server's
  /// time-series once — slot-mix fractions and queue depth, sampled every
  /// kMetricsWindowSlots slots — so the slot loop pays one pointer check
  /// when detached and plain integer bumps when attached. Consumes no
  /// randomness and schedules no events either way.
  void EnableMetrics(obs::MetricsRegistry* registry);

  /// Submits a backchannel pull request on behalf of `client` (a trace
  /// identity; obs::kNoClient when anonymous). The return value is for
  /// instrumentation only — per the model, clients get no feedback and must
  /// not branch on it.
  SubmitResult SubmitRequest(PageId page,
                             std::uint32_t client = obs::kNoClient);

  /// SubmitRequest with an explicit submission timestamp for trace
  /// records. This is the entry point for fused (lazy-source) arrivals
  /// drained at a barrier after their true arrival time: the queue outcome
  /// is identical, but the trace must carry the arrival's own timestamp,
  /// not the barrier's. Does not itself drain lazy sources.
  SubmitResult SubmitRequestAt(PageId page, std::uint32_t client,
                               sim::SimTime at);

  /// The periodic program (empty for Pure-Pull).
  const broadcast::BroadcastProgram& program() const { return *program_; }

  /// Current position in the push schedule (meaningless when the program is
  /// empty). Clients consult this for the threshold filter — the paper
  /// assumes clients know the broadcast schedule.
  std::uint32_t SchedulePosition() const;

  /// Push-schedule slots until `page` next appears from the current
  /// position; BroadcastProgram::kNeverBroadcast if it is not scheduled.
  std::uint32_t DistanceToNextPush(PageId page) const;

  /// Request-queue statistics.
  const PullQueue& queue() const { return queue_; }

  /// Slot accounting.
  std::uint64_t TotalSlots() const { return total_slots_; }
  std::uint64_t PushSlots() const { return push_slots_; }
  std::uint64_t PullSlots() const { return pull_slots_; }
  std::uint64_t IdleSlots() const { return idle_slots_; }

  /// Slot-mix sampling window for EnableMetrics time-series.
  static constexpr std::uint32_t kMetricsWindowSlots = 256;

 private:
  /// EventHandler: the periodic slot timer fired.
  void OnEvent() override { OnSlotBoundary(); }

  void OnSlotBoundary();
  void ChooseNextSlot();
  void SampleSlotWindow();

  /// Fault pipeline: the request reached the server (post loss/delay).
  SubmitResult SubmitArrived(PageId page, std::uint32_t client,
                             sim::SimTime at);
  /// Re-evaluates the degraded-mode watermarks after a depth change.
  void UpdateDegraded();
  /// Feeds one submit outcome, queue and fault outcomes alike, to the
  /// attached trace sink and windowed collector.
  void RecordSubmit(SubmitResult result, PageId page, std::uint32_t client,
                    sim::SimTime at);

  sim::Simulator* simulator_;
  std::shared_ptr<const broadcast::BroadcastProgram> program_;
  std::optional<broadcast::ScheduleCursor> cursor_;  // Absent if no program.
  double pull_bw_;
  PullQueue queue_;
  sim::Rng rng_;
  std::vector<BroadcastListener*> listeners_;
  obs::TraceSink* sink_ = nullptr;
  obs::WindowedCollector* collector_ = nullptr;
  obs::TelemetryBus* telemetry_bus_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;

  // Fault-injection state (inert while injector_ is null). The watermark
  // depths and shed distance are resolved once in SetFaultInjector.
  fault::FaultInjector* injector_ = nullptr;
  std::uint32_t shed_enter_depth_ = 0;  // 0 = degraded mode disabled.
  std::uint32_t shed_exit_depth_ = 0;
  std::uint32_t shed_distance_ = 0;
  // Precomputed per-cycle shed decisions (`distance > shed_distance_` as
  // one bit per page x position); rebuilt whenever SetFaultInjector
  // re-resolves the shed threshold, null when infeasible (empty program /
  // oversized cycle) — the shed check then falls back to the cursor's
  // occurrence search.
  std::unique_ptr<const broadcast::CycleSpanTable> shed_table_;
  double degraded_pull_bw_mult_ = 1.0;
  bool degraded_ = false;
  bool outage_active_ = false;
  std::uint64_t degraded_enters_ = 0;
  std::uint64_t degraded_exits_ = 0;
  std::uint64_t outage_slots_ = 0;
  std::uint64_t outages_started_ = 0;

  PageId in_flight_page_ = broadcast::kNoPage;
  SlotKind in_flight_kind_ = SlotKind::kIdle;

  std::uint64_t total_slots_ = 0;
  std::uint64_t push_slots_ = 0;
  std::uint64_t pull_slots_ = 0;
  std::uint64_t idle_slots_ = 0;

  // EnableMetrics state: time-series resolved once (null = detached) plus
  // the current sampling window's slot-kind counts.
  sim::TimeSeries* ts_push_frac_ = nullptr;
  sim::TimeSeries* ts_pull_frac_ = nullptr;
  sim::TimeSeries* ts_idle_frac_ = nullptr;
  sim::TimeSeries* ts_queue_depth_ = nullptr;
  std::uint32_t window_slots_ = 0;
  std::uint32_t window_push_ = 0;
  std::uint32_t window_pull_ = 0;
  std::uint32_t window_idle_ = 0;
};

}  // namespace bdisk::server

#endif  // BDISK_SERVER_BROADCAST_SERVER_H_
