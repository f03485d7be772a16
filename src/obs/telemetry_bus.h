#ifndef BDISK_OBS_TELEMETRY_BUS_H_
#define BDISK_OBS_TELEMETRY_BUS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/frame_sink.h"
#include "obs/json.h"
#include "obs/windowed_collector.h"
#include "sim/types.h"

namespace bdisk::obs {

/// One lifetime-counter reading handed to the bus by its probe. `name` is
/// the counter's `bdisk-metrics-v1` snapshot key, which is what lets
/// `bdisk_top --check --snapshot` reconcile a frame stream against the
/// run's final snapshot with no mapping table.
struct CounterSample {
  const char* name;
  std::uint64_t value;
};

/// Streaming telemetry: turns completed telemetry windows and lifecycle
/// edges into compact `bdisk-frame-v1` JSONL frames on a FrameSink — the
/// live, push-style counterpart of the post-hoc snapshot/trace exports
/// (OBSERVABILITY.md §8).
///
/// Frame kinds: `run_start` (provenance + the base counter vector),
/// `window` (counter deltas, gauges, and the window row), `degraded_enter`
/// / `degraded_exit`, `flight_fire`, and `run_end` (closing deltas,
/// cumulative totals, drop accounting).
///
/// Delta semantics — the invariant the whole design serves: every frame
/// gets the next sequence number whether or not the sink accepts it, and
/// counter deltas are credited only when a frame is accepted. A dropped
/// window frame therefore leaves a visible seq gap while its deltas carry
/// forward into the next accepted frame, and `run_end` closes the stream
/// with the deltas since the last accepted frame plus cumulative totals —
/// so for any received stream, base + sum(deltas) == totals exactly, no
/// matter which frames were dropped in between.
///
/// Attach discipline matches the rest of the obs tier: the bus consumes
/// no randomness and schedules no events, so attaching it (any sink)
/// leaves the simulated trajectory bit-identical; wall_ms is the one
/// host-dependent frame field and can be suppressed for byte-identical
/// streams (EnableWallClock(false) — what kernel_matrix_test uses).
class TelemetryBus {
 public:
  explicit TelemetryBus(std::unique_ptr<FrameSink> sink);
  ~TelemetryBus();

  /// Installs the lifetime-counter probe and immediately captures the
  /// base vector (counters may be nonzero before observers attach — the
  /// server's constructor makes the first slot decision). The probe must
  /// return the same counters in the same order on every call.
  void SetProbe(std::function<std::vector<CounterSample>()> probe);

  /// Suppresses the wall_ms field for byte-identical frame streams.
  void EnableWallClock(bool on) { wall_clock_ = on; }

  /// Lifecycle edges. `provenance` is a list of key/value pairs describing
  /// the run (mode, seed, ...); keep it to trajectory-relevant fields so
  /// the fused production path and the unfused oracle stream identical
  /// frames.
  void EmitRunStart(
      sim::SimTime now,
      const std::vector<std::pair<std::string, std::string>>& provenance);
  void EmitRunEnd(sim::SimTime now);

  /// WindowedCollector calls this as each window closes (before the
  /// flight recorder sees it, so a window frame precedes its flight_fire).
  void OnWindow(const WindowStats& window);

  /// BroadcastServer's degraded-mode hysteresis edge.
  void OnDegraded(sim::SimTime now, bool entering, std::uint32_t queue_depth);

  /// FlightRecorder fired on `window_end`'s window.
  void OnFlightFire(sim::SimTime window_end, const char* trigger,
                    double threshold, double value, std::uint64_t fire_count);

  /// Frames built (sequence numbers handed out), frames the sink refused,
  /// and how many of the built frames were window frames.
  std::uint64_t FramesEmitted() const { return next_seq_; }
  std::uint64_t FramesDropped() const { return frames_dropped_; }
  std::uint64_t WindowFrames() const { return window_frames_; }

  FrameSink& sink() { return *sink_; }

 private:
  class FrameBuilder;

  void Probe(std::vector<std::uint64_t>* out) const;
  double WallMs() const;
  bool Send(const std::string& frame, bool final_frame);

  std::unique_ptr<FrameSink> sink_;
  std::function<std::vector<CounterSample>()> probe_;
  std::vector<const char*> counter_names_;
  std::vector<std::uint64_t> base_;
  // Counter values as of the last frame the sink accepted; the next
  // frame's deltas are measured from here (carry-forward on drop).
  std::vector<std::uint64_t> credited_;
  std::chrono::steady_clock::time_point started_;
  // Per-frame scratch, reused so the steady-state window path allocates
  // nothing (perfbench's obs.overhead_frac measures the attach cost).
  JsonWriter scratch_writer_;
  std::vector<std::uint64_t> scratch_current_;
  std::vector<std::uint64_t> scratch_deltas_;
  bool wall_clock_ = true;
  bool degraded_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t window_frames_ = 0;
};

}  // namespace bdisk::obs

#endif  // BDISK_OBS_TELEMETRY_BUS_H_
