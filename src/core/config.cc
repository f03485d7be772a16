#include "core/config.h"

#include <cmath>
#include <utility>

#include "core/config_io.h"
#include "obs/flight_recorder.h"
#include "obs/frame_sink.h"

namespace bdisk::core {

const char* DeliveryModeName(DeliveryMode mode) {
  switch (mode) {
    case DeliveryMode::kPurePush:
      return "Push";
    case DeliveryMode::kPurePull:
      return "Pull";
    case DeliveryMode::kIpp:
      return "IPP";
  }
  return "?";
}

double SystemConfig::EffectivePullBw() const {
  switch (mode) {
    case DeliveryMode::kPurePush:
      return 0.0;
    case DeliveryMode::kPurePull:
      return 1.0;
    case DeliveryMode::kIpp:
      return pull_bw;
  }
  return pull_bw;
}

std::string SystemConfig::Validate() const {
  // Every double first: NaN passes every range check below (each
  // comparison is false), and an infinity passes the one-sided ones. The
  // controllers' doubles have no config key, so they are listed here.
  for (const ConfigKey& key : ConfigKeys()) {
    const auto number = key.codec.number;
    if (number != nullptr && !std::isfinite(number(*this))) {
      return std::string(key.name) + " must be finite";
    }
  }
  const adaptive::ServerControllerOptions& sc = server_controller;
  const adaptive::ClientControllerOptions& cc = client_controller;
  const std::pair<const char*, double> controller_doubles[] = {
      {"server_controller.control_period", sc.control_period},
      {"server_controller.bw_step", sc.bw_step},
      {"server_controller.bw_min", sc.bw_min},
      {"server_controller.bw_max", sc.bw_max},
      {"server_controller.drop_high", sc.drop_high},
      {"server_controller.drop_low", sc.drop_low},
      {"server_controller.occupancy_low", sc.occupancy_low},
      {"client_controller.control_period", cc.control_period},
      {"client_controller.thres_step", cc.thres_step},
      {"client_controller.thres_min", cc.thres_min},
      {"client_controller.thres_max", cc.thres_max},
      {"client_controller.ratio_high", cc.ratio_high},
      {"client_controller.ratio_low", cc.ratio_low},
  };
  for (const auto& [key, value] : controller_doubles) {
    if (!std::isfinite(value)) return std::string(key) + " must be finite";
  }
  if (server_db_size == 0) return "server_db_size must be positive";
  if (mode != DeliveryMode::kPurePull) {
    const std::string disk_error = disks.Validate();
    if (!disk_error.empty()) return "disks: " + disk_error;
    if (disks.TotalPages() != server_db_size) {
      return "disk sizes must sum to server_db_size";
    }
    if (chop_count >= server_db_size) {
      return "chop_count must leave at least one page on the broadcast";
    }
    if (EffectiveOffset() > server_db_size - chop_count) {
      return "offset exceeds the number of broadcast pages";
    }
  }
  if (server_queue_size == 0) return "server_queue_size must be positive";
  if (pull_bw < 0.0 || pull_bw > 1.0) return "pull_bw must be in [0,1]";
  if (mode == DeliveryMode::kIpp && pull_bw == 0.0) {
    return "IPP with pull_bw == 0 is Pure-Push; use kPurePush";
  }
  if (thres_perc < 0.0 || thres_perc > 1.0) {
    return "thres_perc must be in [0,1]";
  }
  if (chop_count > 0 && mode == DeliveryMode::kPurePush) {
    return "Pure-Push cannot truncate the schedule: unscheduled pages would "
           "be unobtainable without a backchannel";
  }
  if (zipf_theta < 0.0) return "zipf_theta must be non-negative";
  if (noise < 0.0 || noise > 1.0) return "noise must be in [0,1]";
  if (cache_size == 0) return "cache_size must be positive";
  if (cache_size >= server_db_size) {
    return "cache_size must be smaller than the database";
  }
  if (mc_think_time <= 0.0) return "mc_think_time must be positive";
  if (think_time_ratio <= 0.0) return "think_time_ratio must be positive";
  if (steady_state_perc < 0.0 || steady_state_perc > 1.0) {
    return "steady_state_perc must be in [0,1]";
  }
  if (mc_retry_interval < 0.0) return "mc_retry_interval must be >= 0";
  if (mc_policy == cache::PolicyKind::kPix &&
      mode == DeliveryMode::kPurePull) {
    return "PIX needs a push program; Pure-Pull uses P (or LRU/LFU)";
  }
  if ((adaptive_pull_bw || adaptive_threshold) &&
      mode != DeliveryMode::kIpp) {
    return "adaptive controllers tune IPP's knobs; the pure modes have "
           "nothing to adapt";
  }
  if (update_rate < 0.0) return "update_rate must be non-negative";
  if (update_zipf_theta.has_value() && *update_zipf_theta < 0.0) {
    return "update_zipf_theta must be non-negative";
  }
  if (mc_prefetch && mode == DeliveryMode::kPurePull) {
    return "prefetching reads the push broadcast; Pure-Pull has none";
  }
  if (obs_window <= 0.0) return "obs_window must be positive";
  {
    const std::string fault_error = fault.Validate();
    if (!fault_error.empty()) return fault_error;
  }
  if (fault.ChannelFaultsEnabled() || fault.OutagesEnabled()) {
    if (mode == DeliveryMode::kPurePush &&
        (fault.request_loss > 0.0 || fault.request_delay > 0.0)) {
      return "fault.request_loss/request_delay need a backchannel; "
             "Pure-Push has none";
    }
  }
  if (fault.DegradedModeEnabled() && mode == DeliveryMode::kPurePush) {
    return "fault.shed_hi governs the pull queue; Pure-Push has none";
  }
  if (frames.rfind("unix:", 0) == 0) {
    // Catch over-long socket paths at config time: the kernel would
    // silently truncate them at bind/connect and the sink would dial a
    // different name than the receiver bound.
    const std::string path_error =
        obs::ValidateUnixSocketPath(frames.substr(5));
    if (!path_error.empty()) return "frames: " + path_error;
  }
  if (!flight_recorder.empty()) {
    obs::FlightTriggers triggers;
    const std::string error =
        obs::ParseFlightTriggerSpec(flight_recorder, &triggers);
    if (!error.empty()) return "flight_recorder: " + error;
  }
  return "";
}

}  // namespace bdisk::core
