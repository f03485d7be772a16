#include "sim/process.h"

namespace bdisk::sim {

Process::~Process() { CancelWakeup(); }

void Process::OnEvent() {
  wakeup_id_ = kInvalidEventId;
  OnWakeup();
}

void Process::ScheduleWakeup(SimTime delay) {
  CancelWakeup();
  wakeup_id_ = simulator_->ScheduleAfter(delay, this);
}

void Process::CancelWakeup() {
  if (wakeup_id_ != kInvalidEventId) {
    simulator_->Cancel(wakeup_id_);
    wakeup_id_ = kInvalidEventId;
  }
}

}  // namespace bdisk::sim
