// core::ServerStack, the one builder of the serving half: which config keys
// it reads (and so which ones bdisk_serve refuses), and that a stack built
// for the wire runs the PullBW controller like the simulated one.

#include "core/server_stack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "core/config_io.h"
#include "core/system.h"

namespace bdisk::core {
namespace {

bool StackReads(const std::string& key) {
  return std::find(std::begin(ServerStack::kConfigKeys),
                   std::end(ServerStack::kConfigKeys),
                   key) != std::end(ServerStack::kConfigKeys);
}

TEST(ServeKeysTest, EveryKeyIsReadByTheStackOrRefusedByServe) {
  // Every key ConfigToText can write, each away from its default: the
  // optional lines set and the fault plan enabled.
  const char* const kNonDefaults[][2] = {
      {"mode", "pull"},
      {"server_db_size", "200"},
      {"disk_sizes", "20,80,100"},
      {"disk_freqs", "4,2,1"},
      {"server_queue_size", "50"},
      {"pull_bw", "0.3"},
      {"thres_perc", "0.2"},
      {"chop_count", "5"},
      {"offset", "7"},
      {"chunking", "pad"},
      {"zipf_theta", "0.8"},
      {"noise", "0.1"},
      {"cache_size", "50"},
      {"mc_think_time", "3"},
      {"think_time_ratio", "25"},
      {"steady_state_perc", "0.9"},
      {"vc_enabled", "false"},
      {"vc_fusion", "false"},
      {"mc_retry_interval", "40"},
      {"mc_policy", "lru"},
      {"seed", "7"},
      {"update_rate", "0.5"},
      {"update_zipf_theta", "0.5"},
      {"mc_prefetch", "true"},
      {"adaptive_pull_bw", "true"},
      {"adaptive_threshold", "true"},
      {"obs_window", "50"},
      {"flight_recorder", "drop_rate>0.5"},
      {"flight_recorder_max_dumps", "3"},
      {"frames", "frames.jsonl"},
      {"fault.slot_loss", "0.1"},
      {"fault.slot_corruption", "0.05"},
      {"fault.request_loss", "0.1"},
      {"fault.request_delay", "1.5"},
      {"fault.outage_start", "100"},
      {"fault.outage_duration", "40"},
      {"fault.outage_period", "300"},
      {"fault.brownout", "true"},
      {"fault.mc_timeout", "5"},
      {"fault.mc_max_retries", "2"},
      {"fault.mc_backoff", "3"},
      {"fault.mc_backoff_cap", "60"},
      {"fault.mc_jitter", "0.2"},
      {"fault.mc_dead_threshold", "4"},
      {"fault.mc_probe_interval", "30"},
      {"fault.shed_hi", "0.75"},
      {"fault.shed_lo", "0.25"},
      {"fault.shed_distance", "10"},
      {"fault.degraded_pull_bw", "0.5"},
  };
  SystemConfig all;
  for (const auto& [key, value] : kNonDefaults) {
    ASSERT_EQ(ApplyConfigOption(key, value, &all), "") << key;
  }
  const auto defaults = ConfigEntries(SystemConfig{});
  const auto entries = ConfigEntries(all);
  ASSERT_EQ(entries.size(), defaults.size());
  const std::string text = ConfigToText(all);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // A key missing from kNonDefaults stays at its default and fails here.
    EXPECT_NE(entries[i].second, defaults[i].second)
        << entries[i].first << " is at its default";
    EXPECT_NE(text.find(entries[i].first + " = "), std::string::npos)
        << entries[i].first;
  }

  // Each key alone: either the stack reads it, or serve refuses it by
  // name — never both, never neither.
  for (const auto& [key, value] : entries) {
    SystemConfig one;
    ASSERT_EQ(ApplyConfigOption(key, value, &one), "") << key;
    const std::string refused = UnservedKey(one);
    if (StackReads(key)) {
      EXPECT_EQ(refused, "") << key;
    } else {
      EXPECT_EQ(refused, key) << key;
    }
  }

  // The stack's list names real keys only.
  for (const char* key : ServerStack::kConfigKeys) {
    EXPECT_TRUE(std::any_of(entries.begin(), entries.end(),
                            [key](const auto& e) { return e.first == key; }))
        << key;
  }
}

TEST(ServerStackTest, ServeStackRunsThePullBwController) {
  SystemConfig config;
  config.adaptive_pull_bw = true;
  ServerStack stack(config, *BuildArtifacts(config),
                    ServerStack::Wire::kDatagram);
  ASSERT_NE(stack.server_controller(), nullptr);
  stack.Start();
  stack.simulator().RunUntil(3.0 * config.server_controller.control_period);
  // No peer pulls, so every window is drop-free with an empty queue: each
  // decision raises PullBW one step.
  EXPECT_EQ(stack.server_controller()->Decisions(), 3U);
  EXPECT_EQ(stack.server_controller()->Adjustments(), 3U);
  EXPECT_GT(stack.server().pull_bw(), config.pull_bw);
}

}  // namespace
}  // namespace bdisk::core
