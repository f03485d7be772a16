#include "core/config.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace bdisk::core {
namespace {

TEST(ConfigTest, DefaultsAreThePaperTable3AndValid) {
  SystemConfig config;
  EXPECT_TRUE(config.Validate().empty()) << config.Validate();
  EXPECT_EQ(config.server_db_size, 1000U);
  EXPECT_EQ(config.cache_size, 100U);
  EXPECT_EQ(config.server_queue_size, 100U);
  EXPECT_EQ(config.mc_think_time, 20.0);
  EXPECT_EQ(config.zipf_theta, 0.95);
  EXPECT_EQ(config.disks.sizes, (std::vector<std::uint32_t>{100, 400, 500}));
  EXPECT_EQ(config.disks.rel_freqs, (std::vector<std::uint32_t>{3, 2, 1}));
  EXPECT_EQ(config.EffectiveOffset(), 100U);  // Offset = CacheSize.
}

TEST(ConfigTest, EffectivePullBwFollowsMode) {
  SystemConfig config;
  config.pull_bw = 0.3;
  config.mode = DeliveryMode::kPurePush;
  EXPECT_EQ(config.EffectivePullBw(), 0.0);
  config.mode = DeliveryMode::kPurePull;
  EXPECT_EQ(config.EffectivePullBw(), 1.0);
  config.mode = DeliveryMode::kIpp;
  EXPECT_EQ(config.EffectivePullBw(), 0.3);
}

TEST(ConfigTest, ModeNames) {
  EXPECT_STREQ(DeliveryModeName(DeliveryMode::kPurePush), "Push");
  EXPECT_STREQ(DeliveryModeName(DeliveryMode::kPurePull), "Pull");
  EXPECT_STREQ(DeliveryModeName(DeliveryMode::kIpp), "IPP");
}

TEST(ConfigTest, RejectsDiskSizeMismatch) {
  SystemConfig config;
  config.server_db_size = 900;
  EXPECT_NE(config.Validate().find("sum"), std::string::npos);
}

TEST(ConfigTest, PurePullIgnoresDiskShape) {
  SystemConfig config;
  config.mode = DeliveryMode::kPurePull;
  config.server_db_size = 900;  // Disks no longer match: fine for pull.
  EXPECT_TRUE(config.Validate().empty()) << config.Validate();
}

TEST(ConfigTest, RejectsIppWithZeroPullBw) {
  SystemConfig config;
  config.pull_bw = 0.0;
  EXPECT_NE(config.Validate().find("Pure-Push"), std::string::npos);
}

TEST(ConfigTest, RejectsPushWithTruncation) {
  SystemConfig config;
  config.mode = DeliveryMode::kPurePush;
  config.chop_count = 100;
  EXPECT_NE(config.Validate().find("truncate"), std::string::npos);
}

TEST(ConfigTest, RejectsChopOfEverything) {
  SystemConfig config;
  config.chop_count = 1000;
  EXPECT_FALSE(config.Validate().empty());
}

TEST(ConfigTest, RejectsOffsetBeyondBroadcastPages) {
  SystemConfig config;
  config.chop_count = 950;
  config.offset = 100;
  EXPECT_NE(config.Validate().find("offset"), std::string::npos);
}

TEST(ConfigTest, RejectsCacheAsLargeAsDatabase) {
  SystemConfig config;
  config.cache_size = 1000;
  EXPECT_NE(config.Validate().find("smaller"), std::string::npos);
}

TEST(ConfigTest, RejectsBadFractions) {
  SystemConfig config;
  config.thres_perc = 1.2;
  EXPECT_FALSE(config.Validate().empty());
  config = SystemConfig{};
  config.noise = -0.2;
  EXPECT_FALSE(config.Validate().empty());
  config = SystemConfig{};
  config.steady_state_perc = 2.0;
  EXPECT_FALSE(config.Validate().empty());
  config = SystemConfig{};
  config.pull_bw = 1.0001;
  EXPECT_FALSE(config.Validate().empty());
}

TEST(ConfigTest, RejectsNonFiniteDoublesByKey) {
  // NaN slips past every range check (each comparison is false), and an
  // infinity past the one-sided ones, so each double is checked first.
  struct Field {
    const char* key;
    double& (*at)(SystemConfig&);
  };
#define FIELD(key, member) \
  Field { key, [](SystemConfig& c) -> double& { return c.member; } }
  const Field fields[] = {
      FIELD("pull_bw", pull_bw),
      FIELD("thres_perc", thres_perc),
      FIELD("zipf_theta", zipf_theta),
      FIELD("noise", noise),
      FIELD("mc_think_time", mc_think_time),
      FIELD("think_time_ratio", think_time_ratio),
      FIELD("steady_state_perc", steady_state_perc),
      FIELD("mc_retry_interval", mc_retry_interval),
      FIELD("update_rate", update_rate),
      Field{"update_zipf_theta",
            [](SystemConfig& c) -> double& {
              return c.update_zipf_theta.emplace();
            }},
      FIELD("obs_window", obs_window),
      FIELD("fault.slot_loss", fault.slot_loss),
      FIELD("fault.slot_corruption", fault.slot_corruption),
      FIELD("fault.request_loss", fault.request_loss),
      FIELD("fault.request_delay", fault.request_delay),
      FIELD("fault.outage_start", fault.outage_start),
      FIELD("fault.outage_duration", fault.outage_duration),
      FIELD("fault.outage_period", fault.outage_period),
      FIELD("fault.mc_timeout", fault.mc_timeout),
      FIELD("fault.mc_backoff", fault.mc_backoff),
      FIELD("fault.mc_backoff_cap", fault.mc_backoff_cap),
      FIELD("fault.mc_jitter", fault.mc_jitter),
      FIELD("fault.mc_probe_interval", fault.mc_probe_interval),
      FIELD("fault.shed_hi", fault.shed_hi),
      FIELD("fault.shed_lo", fault.shed_lo),
      FIELD("fault.degraded_pull_bw", fault.degraded_pull_bw),
      FIELD("server_controller.control_period",
            server_controller.control_period),
      FIELD("server_controller.bw_step", server_controller.bw_step),
      FIELD("server_controller.bw_min", server_controller.bw_min),
      FIELD("server_controller.bw_max", server_controller.bw_max),
      FIELD("server_controller.drop_high", server_controller.drop_high),
      FIELD("server_controller.drop_low", server_controller.drop_low),
      FIELD("server_controller.occupancy_low",
            server_controller.occupancy_low),
      FIELD("client_controller.control_period",
            client_controller.control_period),
      FIELD("client_controller.thres_step", client_controller.thres_step),
      FIELD("client_controller.thres_min", client_controller.thres_min),
      FIELD("client_controller.thres_max", client_controller.thres_max),
      FIELD("client_controller.ratio_high", client_controller.ratio_high),
      FIELD("client_controller.ratio_low", client_controller.ratio_low),
  };
#undef FIELD
  for (const Field& field : fields) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      SystemConfig config;
      field.at(config) = bad;
      const std::string error = config.Validate();
      EXPECT_EQ(error, std::string(field.key) + " must be finite")
          << field.key << " = " << bad;
    }
  }
}

TEST(ConfigTest, ExplicitOffsetOverridesDefault) {
  SystemConfig config;
  config.offset = 0;
  EXPECT_EQ(config.EffectiveOffset(), 0U);
  EXPECT_TRUE(config.Validate().empty());
}

}  // namespace
}  // namespace bdisk::core
