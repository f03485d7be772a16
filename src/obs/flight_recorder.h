#ifndef BDISK_OBS_FLIGHT_RECORDER_H_
#define BDISK_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"

namespace bdisk::obs {

/// Thresholds that arm the flight recorder; a window whose statistic
/// exceeds a threshold fires it. kDisarmed (infinity) means "never".
struct FlightTriggers {
  static constexpr double kDisarmed = std::numeric_limits<double>::infinity();

  double drop_rate = kDisarmed;    // Window drop rate (dropped / submits).
  double p99 = kDisarmed;          // Window response p99, broadcast units.
  double queue_depth = kDisarmed;  // Window queue-depth high water.
  double shed_rate = kDisarmed;    // Window (shed + outage) / submits.
  double loss_rate = kDisarmed;    // Window slots lost / slots.

  bool Armed() const {
    return drop_rate != kDisarmed || p99 != kDisarmed ||
           queue_depth != kDisarmed || shed_rate != kDisarmed ||
           loss_rate != kDisarmed;
  }
};

/// Parses a trigger spec like "drop_rate>0.5,p99>2000,queue_depth>90" into
/// `out`. Triggers not named stay disarmed. Returns "" on success, else a
/// one-line description of what is wrong (unknown trigger name, missing
/// '>', unparsable or negative threshold) — surfaced verbatim by config
/// validation and the CLI.
std::string ParseFlightTriggerSpec(const std::string& spec,
                                   FlightTriggers* out);

class TelemetryBus;

/// An anomaly flight recorder: watches completed telemetry windows and, on
/// the first window that crosses a trigger, writes a dump of two files in
/// formats that already have readers, named by the window's end time and
/// the trigger, e.g. "<prefix>t100-queue_depth":
///  - "<stem>.jsonl": the trailing trace slice as trace JSONL
///    (TraceSink::ToJsonl from the window's start; trace_report reads it);
///  - "<stem>.json": a "bdisk-metrics-v1" snapshot (bdisk_compare reads
///    it) with the gauges flight.fired_at (window end),
///    flight.window_start, flight.threshold and flight.value. Its window.*
///    series end with the firing window.
///
/// One-shot by default — the interesting state is what led up to the FIRST
/// anomaly; later windows of a sustained overload would only repeat it.
/// `max_dumps` > 1 re-arms automatically after each dump until that many
/// have been written (each with a distinct window-end time in its file
/// names), so a sustained overload keeps its later anomalies too.
/// Evaluation is pure observation: no randomness, no events, so an
/// armed-but-silent recorder keeps the trajectory bit-identical.
class FlightRecorder {
 public:
  FlightRecorder(const FlightTriggers& triggers, std::string path_prefix,
                 std::uint32_t max_dumps = 1);

  /// Trailing trace source for dumps (null = no trace file).
  void SetTraceSink(const TraceSink* sink) { sink_ = sink; }

  /// Metrics-snapshot source for dumps: a callback that fills the dump's
  /// registry (null = a snapshot of the flight.* gauges alone). A callback
  /// rather than a registry pointer so the owner can assemble the snapshot
  /// lazily, only when a trigger actually fires.
  void SetSnapshot(std::function<void(MetricsRegistry*)> snapshot) {
    snapshot_ = std::move(snapshot);
  }

  /// Streams a `flight_fire` frame on each dump (null detaches).
  void SetTelemetryBus(TelemetryBus* bus) { bus_ = bus; }

  /// Evaluates one completed window (WindowedCollector calls this).
  void OnWindow(const WindowStats& window);

  /// True once every dump of the budget is spent: the recorder will not
  /// fire again.
  bool Fired() const { return disarmed_; }
  std::uint64_t WindowsEvaluated() const { return windows_evaluated_; }
  std::uint64_t FireCount() const { return fire_count_; }
  std::uint32_t MaxDumps() const { return max_dumps_; }

  /// Stem of the last dump written ("<prefix>t<end>-<trigger>"; the files
  /// are the stem plus ".json" and ".jsonl"); empty if none (or if a write
  /// failed, in which case LastError() says why).
  const std::string& DumpStem() const { return dump_stem_; }
  const std::string& LastError() const { return last_error_; }

 private:
  void Fire(const WindowStats& window, const char* trigger, double threshold,
            double value);

  FlightTriggers triggers_;
  std::string path_prefix_;
  std::uint32_t max_dumps_;
  const TraceSink* sink_ = nullptr;
  std::function<void(MetricsRegistry*)> snapshot_;
  TelemetryBus* bus_ = nullptr;
  bool disarmed_ = false;
  std::uint64_t windows_evaluated_ = 0;
  std::uint64_t fire_count_ = 0;
  std::string dump_stem_;
  std::string last_error_;
};

}  // namespace bdisk::obs

#endif  // BDISK_OBS_FLIGHT_RECORDER_H_
