#ifndef BDISK_OBS_WINDOWED_COLLECTOR_H_
#define BDISK_OBS_WINDOWED_COLLECTOR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/check.h"
#include "sim/types.h"

namespace bdisk::obs {

class FlightRecorder;
class TelemetryBus;

/// Aggregates over one telemetry window [start, end).
struct WindowStats {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;

  std::uint64_t slots_push = 0;
  std::uint64_t slots_pull = 0;
  std::uint64_t slots_idle = 0;

  std::uint64_t submits = 0;  // Every OnSubmit outcome below.
  std::uint64_t accepted = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t dropped = 0;
  // bdisk::fault outcomes; all zero without an active FaultPlan.
  std::uint64_t shed = 0;            // Degraded-mode admission control.
  std::uint64_t outage_dropped = 0;  // Discarded inside an outage window.
  std::uint64_t lost = 0;            // Lost on the backchannel.
  std::uint64_t slots_lost = 0;      // Slots lost/corrupted in transit.

  std::uint32_t queue_depth = 0;      // Last observed in the window.
  std::uint32_t queue_depth_max = 0;  // High-water within the window.

  std::uint64_t responses = 0;  // Completed accesses (hits included).
  double response_mean = 0.0;
  double response_p50 = 0.0;
  double response_p99 = 0.0;
  double response_max = 0.0;

  std::uint64_t Slots() const { return slots_push + slots_pull + slots_idle; }
  double PushFrac() const;
  double PullFrac() const;
  double IdleFrac() const;
  double DropRate() const;  // dropped / submits, 0 when no submits.
  double ShedRate() const;  // (shed + outage_dropped) / submits.
  double LossRate() const;  // slots_lost / Slots(), 0 when no slots.
};

/// Bounded per-window time-series of queue depth, drop rate, slot split,
/// and response percentiles, fed from the same instrumentation points as
/// the registry (null-pointer-check attach discipline, DESIGN.md §6).
///
/// The collector is purely reactive: it never consumes randomness and never
/// schedules events, so attaching it leaves the trajectory bit-identical.
/// Windows advance only when fed — event times are non-decreasing because
/// every emission site sits behind a lazy-source drain barrier — and the
/// per-window response histogram is Reset() in place (no allocation) at
/// each boundary. At most `capacity` completed windows are retained,
/// oldest evicted first.
class WindowedCollector {
 public:
  /// `window` is the width in broadcast units, `response_hi` the upper
  /// bound of the per-window response histogram (percentile resolution).
  explicit WindowedCollector(double window = 100.0,
                             std::size_t capacity = 4096,
                             double response_hi = 4096.0);

  /// Forward completed windows to `recorder` for trigger evaluation
  /// (null detaches).
  void SetFlightRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /// Stream completed windows to `bus` as `window` frames (null detaches).
  /// The bus is notified before the flight recorder, so a window's frame
  /// always precedes any flight_fire frame it provokes.
  void SetTelemetryBus(TelemetryBus* bus) { bus_ = bus; }

  /// Instrumentation feeds (call sites hold a null-checked raw pointer).
  /// Slots and submits arrive as the trace's record kinds: OnSlot takes a
  /// kSlotPush/kSlotPull/kSlotIdle decision, OnSubmit a kSubmit* outcome
  /// (shed, outage and lost arise only under bdisk::fault).
  /// Inline on purpose: these run once per slot / submit / access, and the
  /// common case is "window still open" — one compare, a few increments.
  /// Window rollover takes the out-of-line slow path.
  void OnSlot(sim::SimTime now, SpanEvent kind, std::uint32_t queue_depth) {
    Roll(now);
    switch (kind) {
      case SpanEvent::kSlotPush:
        ++current_.slots_push;
        break;
      case SpanEvent::kSlotPull:
        ++current_.slots_pull;
        break;
      default:
        BDISK_DCHECK(kind == SpanEvent::kSlotIdle);
        ++current_.slots_idle;
        break;
    }
    current_.queue_depth = queue_depth;
    if (queue_depth > current_.queue_depth_max) {
      current_.queue_depth_max = queue_depth;
    }
  }
  void OnSubmit(sim::SimTime at, SpanEvent outcome,
                std::uint32_t queue_depth) {
    Roll(at);
    ++current_.submits;
    // No branch on the outcome: at saturation accepted, coalesced and
    // dropped submits mix in a pattern no predictor learns.
    current_.accepted += outcome == SpanEvent::kSubmitAccepted;
    current_.coalesced += outcome == SpanEvent::kSubmitCoalesced;
    current_.dropped += outcome == SpanEvent::kSubmitDropped;
    current_.shed += outcome == SpanEvent::kSubmitShed;
    current_.outage_dropped += outcome == SpanEvent::kSubmitOutage;
    current_.lost += outcome == SpanEvent::kSubmitLost;
    BDISK_DCHECK(outcome == SpanEvent::kSubmitAccepted ||
                 outcome == SpanEvent::kSubmitCoalesced ||
                 outcome == SpanEvent::kSubmitDropped ||
                 outcome == SpanEvent::kSubmitShed ||
                 outcome == SpanEvent::kSubmitOutage ||
                 outcome == SpanEvent::kSubmitLost);
    current_.queue_depth = queue_depth;
    if (queue_depth > current_.queue_depth_max) {
      current_.queue_depth_max = queue_depth;
    }
  }
  void OnResponse(sim::SimTime now, double response_time) {
    Roll(now);
    response_hist_.Add(response_time);
  }
  /// A slot's page was lost or corrupted in transit (bdisk::fault).
  void OnSlotLoss(sim::SimTime now) {
    Roll(now);
    ++current_.slots_lost;
  }

  /// Closes the in-progress window (if it saw any event). Call at run end;
  /// feeding after Finish() starts a fresh window.
  void Finish();

  /// Completed windows, oldest first.
  std::vector<WindowStats> Windows() const;

  std::uint64_t WindowsCompleted() const { return windows_completed_; }
  std::uint64_t WindowsEvicted() const { return windows_evicted_; }

  /// Publishes the retained windows as "window.*" time-series (sample time
  /// = window start) plus "window.width"/"window.count" gauges.
  void PublishTo(MetricsRegistry* registry) const;

 private:
  void Roll(sim::SimTime now) {
    if (open_ && now < current_.end) return;
    RollSlow(now);
  }
  void RollSlow(sim::SimTime now);
  void CloseCurrent();

  double window_;
  std::size_t capacity_;
  bool open_ = false;  // current_ has a valid [start, end).
  WindowStats current_;
  LatencyHistogram response_hist_;
  std::deque<WindowStats> ring_;
  std::uint64_t windows_completed_ = 0;
  std::uint64_t windows_evicted_ = 0;
  FlightRecorder* recorder_ = nullptr;
  TelemetryBus* bus_ = nullptr;
};

}  // namespace bdisk::obs

#endif  // BDISK_OBS_WINDOWED_COLLECTOR_H_
