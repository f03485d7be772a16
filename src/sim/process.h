#ifndef BDISK_SIM_PROCESS_H_
#define BDISK_SIM_PROCESS_H_

#include "sim/simulator.h"
#include "sim/types.h"

namespace bdisk::sim {

/// Base class for simulation components driven by a single pending timer
/// (a "process" in CSIM terms, expressed as a state machine).
///
/// A Process is its own EventHandler: scheduling a wakeup stores one
/// pointer in the event queue, so the request–think loops that dominate the
/// simulation never allocate. A Process has at most one outstanding wakeup
/// at a time; scheduling a new one cancels the old. Subclasses implement
/// OnWakeup() and may also react to external stimuli (e.g. a page arriving
/// on the broadcast) between wakeups. The Process must outlive the
/// Simulator run it participates in.
class Process : public EventHandler {
 public:
  explicit Process(Simulator* simulator) : simulator_(simulator) {}
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// The simulator this process runs on.
  Simulator* simulator() const { return simulator_; }

  /// Current simulation time.
  SimTime Now() const { return simulator_->Now(); }

 protected:
  /// Schedules OnWakeup() to run after `delay`; cancels any pending wakeup.
  void ScheduleWakeup(SimTime delay);

  /// Cancels the pending wakeup, if any.
  void CancelWakeup();

  /// Fired when the scheduled wakeup time arrives.
  virtual void OnWakeup() = 0;

 private:
  /// EventHandler: the pending wakeup fired.
  void OnEvent() final;

  Simulator* simulator_;
  EventId wakeup_id_ = kInvalidEventId;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_PROCESS_H_
