#include "obs/telemetry_bus.h"

#include <utility>

#include "obs/json.h"
#include "sim/check.h"

namespace bdisk::obs {

// Shared shape of every frame: schema tag, kind, seq, sim/wall stamps.
// Scoped helper so each Emit* reads as "header, then payload".
class TelemetryBus::FrameBuilder {
 public:
  // Borrows the bus's scratch writer: frames are built strictly one at a
  // time, so reusing a single buffer makes the window path allocation-free
  // in steady state.
  FrameBuilder(TelemetryBus* bus, const char* kind)
      : bus_(bus), writer_(bus->scratch_writer_) {
    writer_.Clear();
    writer_.Reserve(1024);  // Typical window frame; first frame only.
    writer_.BeginObject();
    writer_.Key("schema");
    writer_.Value("bdisk-frame-v1");
    writer_.Key("kind");
    writer_.Value(kind);
    writer_.Key("seq");
    writer_.Value(bus->next_seq_);
  }

  JsonWriter& writer() { return writer_; }

  void Sim(sim::SimTime now) {
    writer_.Key("sim");
    writer_.Value(now);
  }

  void Wall() {
    if (!bus_->wall_clock_) return;
    writer_.Key("wall_ms");
    writer_.Value(bus_->WallMs());
  }

  /// Emits {"name": value, ...} for a counter vector under `key`. With
  /// `skip_zeros`, entries whose value is 0 are omitted — used for window
  /// deltas, where a counter that did not move this window carries no
  /// information (reconciliation sums whatever is present) and the saved
  /// bytes are most of the frame.
  void Counters(const char* key, const std::vector<std::uint64_t>& values,
                bool skip_zeros = false) {
    writer_.Key(key);
    writer_.BeginObject();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (skip_zeros && values[i] == 0) continue;
      writer_.Key(bus_->counter_names_[i]);
      writer_.Value(values[i]);
    }
    writer_.EndObject();
  }

  const std::string& Finish() {
    writer_.EndObject();
    return writer_.str();
  }

 private:
  TelemetryBus* bus_;
  JsonWriter& writer_;
};

TelemetryBus::TelemetryBus(std::unique_ptr<FrameSink> sink)
    : sink_(std::move(sink)), started_(std::chrono::steady_clock::now()) {
  BDISK_CHECK_MSG(sink_ != nullptr, "TelemetryBus needs a sink");
}

TelemetryBus::~TelemetryBus() = default;

void TelemetryBus::SetProbe(Probe probe) {
  probe_ = std::move(probe);
  counter_names_.clear();
  base_.clear();
  if (!probe_) return;
  probe_(&scratch_samples_);
  for (const CounterSample& sample : scratch_samples_) {
    counter_names_.push_back(sample.name);
    base_.push_back(sample.value);
  }
  credited_ = base_;
}

void TelemetryBus::ReadCounters(std::vector<std::uint64_t>* out) {
  out->clear();
  if (!probe_) return;
  probe_(&scratch_samples_);
  for (const CounterSample& sample : scratch_samples_) {
    out->push_back(sample.value);
  }
  BDISK_CHECK_MSG(out->size() == counter_names_.size(),
                  "telemetry probe changed shape between calls");
}

double TelemetryBus::WallMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - started_)
      .count();
}

bool TelemetryBus::Send(const std::string& frame, bool final_frame) {
  ++next_seq_;
  const bool accepted =
      final_frame ? sink_->WriteFinal(frame) : sink_->Write(frame);
  if (!accepted) ++frames_dropped_;
  return accepted;
}

void TelemetryBus::EmitRunStart(
    sim::SimTime now,
    const std::vector<std::pair<std::string, std::string>>& provenance) {
  FrameBuilder frame(this, "run_start");
  frame.Sim(now);
  frame.Wall();
  frame.writer().Key("provenance");
  frame.writer().BeginObject();
  for (const auto& [key, value] : provenance) {
    frame.writer().Key(key);
    frame.writer().Value(value);
  }
  frame.writer().EndObject();
  frame.Counters("base", base_);
  Send(frame.Finish(), /*final_frame=*/false);
}

void TelemetryBus::OnWindow(const WindowStats& w) {
  ++window_frames_;
  ReadCounters(&scratch_current_);
  const std::vector<std::uint64_t>& current = scratch_current_;

  FrameBuilder frame(this, "window");
  frame.Sim(w.end);
  frame.Wall();

  JsonWriter& j = frame.writer();
  j.Key("window");
  j.BeginObject();
  j.Key("start");
  j.Value(w.start);
  j.Key("end");
  j.Value(w.end);
  j.Key("slots_push");
  j.Value(w.slots_push);
  j.Key("slots_pull");
  j.Value(w.slots_pull);
  j.Key("slots_idle");
  j.Value(w.slots_idle);
  j.Key("push_frac");
  j.Value(w.PushFrac());
  j.Key("drop_rate");
  j.Value(w.DropRate());
  j.Key("shed_rate");
  j.Value(w.ShedRate());
  j.Key("loss_rate");
  j.Value(w.LossRate());
  j.Key("responses");
  j.Value(w.responses);
  j.Key("response_mean");
  j.Value(w.response_mean);
  j.Key("response_p50");
  j.Value(w.response_p50);
  j.Key("response_p99");
  j.Value(w.response_p99);
  j.Key("response_max");
  j.Value(w.response_max);
  j.EndObject();

  j.Key("gauges");
  j.BeginObject();
  j.Key("queue_depth");
  j.Value(static_cast<std::uint64_t>(w.queue_depth));
  j.Key("queue_depth_max");
  j.Value(static_cast<std::uint64_t>(w.queue_depth_max));
  j.Key("degraded");
  j.Value(static_cast<std::uint64_t>(degraded_ ? 1 : 0));
  j.EndObject();

  scratch_deltas_.assign(current.size(), 0);
  for (std::size_t i = 0; i < current.size(); ++i) {
    scratch_deltas_[i] = current[i] - credited_[i];
  }
  frame.Counters("deltas", scratch_deltas_, /*skip_zeros=*/true);

  if (Send(frame.Finish(), /*final_frame=*/false)) credited_ = current;
}

void TelemetryBus::OnDegraded(sim::SimTime now, bool entering,
                              std::uint32_t queue_depth) {
  degraded_ = entering;
  FrameBuilder frame(this, entering ? "degraded_enter" : "degraded_exit");
  frame.Sim(now);
  frame.Wall();
  frame.writer().Key("queue_depth");
  frame.writer().Value(static_cast<std::uint64_t>(queue_depth));
  Send(frame.Finish(), /*final_frame=*/false);
}

void TelemetryBus::OnFlightFire(sim::SimTime window_end, const char* trigger,
                                double threshold, double value,
                                std::uint64_t fire_count) {
  FrameBuilder frame(this, "flight_fire");
  frame.Sim(window_end);
  frame.Wall();
  JsonWriter& j = frame.writer();
  j.Key("trigger");
  j.Value(trigger);
  j.Key("threshold");
  j.Value(threshold);
  j.Key("value");
  j.Value(value);
  j.Key("fire_count");
  j.Value(fire_count);
  Send(frame.Finish(), /*final_frame=*/false);
}

void TelemetryBus::EmitRunEnd(sim::SimTime now) {
  ReadCounters(&scratch_current_);
  const std::vector<std::uint64_t>& current = scratch_current_;

  FrameBuilder frame(this, "run_end");
  frame.Sim(now);
  frame.Wall();

  // Closing deltas: whatever the last accepted frame did not yet carry
  // (including deltas carried forward over dropped window frames). With
  // them, base + sum of every received frame's deltas == totals exactly.
  scratch_deltas_.assign(current.size(), 0);
  for (std::size_t i = 0; i < current.size(); ++i) {
    scratch_deltas_[i] = current[i] - credited_[i];
  }
  frame.Counters("deltas", scratch_deltas_, /*skip_zeros=*/true);
  frame.Counters("totals", current);
  frame.Counters("base", base_);

  JsonWriter& j = frame.writer();
  j.Key("window_frames");
  j.Value(window_frames_);
  // Counts as of this frame: run_end's own seq is next_seq_, so a checker
  // can verify it received every non-dropped frame.
  j.Key("frames_emitted");
  j.Value(next_seq_ + 1);
  j.Key("frames_dropped");
  j.Value(frames_dropped_);

  if (Send(frame.Finish(), /*final_frame=*/true)) credited_ = current;
}

}  // namespace bdisk::obs
