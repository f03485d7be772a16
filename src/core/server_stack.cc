#include "core/server_stack.h"

#include "core/config_io.h"
#include "sim/check.h"

namespace bdisk::core {

ServerStack::ServerStack(const SystemConfig& config,
                         const SystemArtifacts& artifacts, Wire wire)
    : root_(config.seed) {
  const std::string error = config.Validate();
  BDISK_CHECK_MSG(error.empty(), error.c_str());
  BDISK_CHECK_MSG(
      artifacts.canonical_pattern.DbSize() == config.server_db_size,
      "shared artifacts built from a different configuration");

  // The program comes from the aggregate (VC) pattern; the MC's possibly-
  // noisy view plays no part in it (§3.2). Shared across Systems in a
  // sweep — the server only reads it.
  server_ = std::make_unique<server::BroadcastServer>(
      &simulator_, artifacts.program, config.EffectivePullBw(),
      config.server_queue_size, root_.Split());

  // Each fault applies exactly once: on the wire, the transport judges
  // slot and request loss, and the server keeps outages, delay and
  // degraded mode.
  fault::FaultPlan server_plan = config.fault;
  if (wire == Wire::kDatagram) {
    fault::FaultPlan wire_plan;
    wire_plan.slot_loss = config.fault.slot_loss;
    wire_plan.slot_corruption = config.fault.slot_corruption;
    wire_plan.request_loss = config.fault.request_loss;
    if (wire_plan.Enabled()) {
      wire_faults_ = std::make_unique<fault::FaultInjector>(
          wire_plan, sim::Rng(config.seed ^ kTransportSalt));
    }
    server_plan.slot_loss = 0.0;
    server_plan.slot_corruption = 0.0;
    server_plan.request_loss = 0.0;
  }
  if (server_plan.Enabled()) {
    server_faults_ = std::make_unique<fault::FaultInjector>(
        server_plan, sim::Rng(config.seed ^ kFaultSalt));
    server_->SetFaultInjector(server_faults_.get());
  }

  if (config.adaptive_pull_bw) {
    controller_ = std::make_unique<adaptive::ServerController>(
        &simulator_, server_.get(), config.server_controller);
  }
}

void ServerStack::Start() {
  if (controller_) controller_->Start();
}

std::string UnservedKey(const SystemConfig& config) {
  const SystemConfig defaults;
  for (const ConfigKey& key : ConfigKeys()) {
    if (!key.served && key.codec.print(config) != key.codec.print(defaults)) {
      return key.name;
    }
  }
  return "";
}

}  // namespace bdisk::core
