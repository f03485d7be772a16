// core::ServerStack, the one builder of the serving half: which config keys
// it reads (and so which ones bdisk_serve refuses), and that a stack built
// for the wire runs the PullBW controller like the simulated one.

#include "core/server_stack.h"

#include <gtest/gtest.h>

#include <string>

#include "config_samples.h"
#include "core/config_io.h"
#include "core/system.h"

namespace bdisk::core {
namespace {

TEST(ServeKeysTest, EveryKeyIsReadByTheStackOrRefusedByServe) {
  SystemConfig all;
  for (const auto& [key, value] : kEveryKeyNonDefault) {
    ASSERT_EQ(ApplyConfigOption(key, value, &all), "") << key;
  }
  const auto defaults = ConfigEntries(SystemConfig{});
  const auto entries = ConfigEntries(all);
  ASSERT_EQ(entries.size(), defaults.size());
  const std::string text = ConfigToText(all);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // A key missing from kEveryKeyNonDefault stays at its default and
    // fails here.
    EXPECT_NE(entries[i].second, defaults[i].second)
        << entries[i].first << " is at its default";
    EXPECT_NE(text.find(entries[i].first + " = "), std::string::npos)
        << entries[i].first;
  }

  // Each key alone: either the stack reads it, or serve refuses it by
  // name — never both, never neither.
  const auto keys = ConfigKeys();
  ASSERT_EQ(keys.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, value] = entries[i];
    ASSERT_EQ(key, keys[i].name);
    SystemConfig one;
    ASSERT_EQ(ApplyConfigOption(key, value, &one), "") << key;
    const std::string refused = UnservedKey(one);
    if (keys[i].served) {
      EXPECT_EQ(refused, "") << key;
    } else {
      EXPECT_EQ(refused, key) << key;
    }
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
