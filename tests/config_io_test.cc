#include "core/config_io.h"

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace bdisk::core {
namespace {

TEST(ConfigIoTest, AppliesScalarOptions) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("pull_bw", "0.3", &config), "");
  EXPECT_EQ(config.pull_bw, 0.3);
  EXPECT_EQ(ApplyConfigOption("cache_size", "50", &config), "");
  EXPECT_EQ(config.cache_size, 50U);
  EXPECT_EQ(ApplyConfigOption("seed", "12345", &config), "");
  EXPECT_EQ(config.seed, 12345U);
  // Integers keep their field's full range.
  EXPECT_EQ(ApplyConfigOption("seed", "18446744073709551615", &config), "");
  EXPECT_EQ(config.seed, 18446744073709551615ULL);
  EXPECT_EQ(ApplyConfigOption("cache_size", "4294967295", &config), "");
  EXPECT_EQ(config.cache_size, 4294967295U);
  EXPECT_EQ(ApplyConfigOption("vc_enabled", "false", &config), "");
  EXPECT_FALSE(config.vc_enabled);
}

TEST(ConfigIoTest, AppliesEnumOptions) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("mode", "pull", &config), "");
  EXPECT_EQ(config.mode, DeliveryMode::kPurePull);
  EXPECT_EQ(ApplyConfigOption("chunking", "pad", &config), "");
  EXPECT_EQ(config.chunking, broadcast::ChunkingMode::kPad);
  EXPECT_EQ(ApplyConfigOption("mc_policy", "lru", &config), "");
  EXPECT_EQ(config.mc_policy, cache::PolicyKind::kLru);
  EXPECT_EQ(ApplyConfigOption("mc_policy", "default", &config), "");
  EXPECT_FALSE(config.mc_policy.has_value());
}

TEST(ConfigIoTest, AppliesListOptions) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("disk_sizes", "50, 200, 250", &config), "");
  EXPECT_EQ(config.disks.sizes, (std::vector<std::uint32_t>{50, 200, 250}));
  EXPECT_EQ(ApplyConfigOption("disk_freqs", "4,2,1", &config), "");
  EXPECT_EQ(config.disks.rel_freqs, (std::vector<std::uint32_t>{4, 2, 1}));
}

TEST(ConfigIoTest, OffsetSpecialValues) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("offset", "42", &config), "");
  EXPECT_EQ(config.offset, 42U);
  EXPECT_EQ(ApplyConfigOption("offset", "cache_size", &config), "");
  EXPECT_FALSE(config.offset.has_value());
}

TEST(ConfigIoTest, RejectsUnknownKeysAndBadValues) {
  SystemConfig config;
  EXPECT_NE(ApplyConfigOption("bogus", "1", &config), "");
  EXPECT_NE(ApplyConfigOption("pull_bw", "abc", &config), "");
  EXPECT_NE(ApplyConfigOption("mode", "hybrid", &config), "");
  EXPECT_NE(ApplyConfigOption("vc_enabled", "maybe", &config), "");
  EXPECT_NE(ApplyConfigOption("disk_sizes", "", &config), "");
}

TEST(ConfigIoTest, ParsesWholeText) {
  SystemConfig config;
  const std::string text =
      "# paper defaults with a twist\n"
      "mode = ipp\n"
      "pull_bw = 0.3   # less pull\n"
      "\n"
      "thres_perc = 0.35\n";
  EXPECT_EQ(ParseConfigText(text, &config), "");
  EXPECT_EQ(config.pull_bw, 0.3);
  EXPECT_EQ(config.thres_perc, 0.35);
}

TEST(ConfigIoTest, ReportsErrorsWithLineNumbers) {
  SystemConfig config;
  const std::string error =
      ParseConfigText("mode = ipp\nnot a config line\n", &config);
  EXPECT_NE(error.find("line 2"), std::string::npos);
  const std::string bad_key = ParseConfigText("\n\nwrong = 1\n", &config);
  EXPECT_NE(bad_key.find("line 3"), std::string::npos);
  EXPECT_NE(bad_key.find("unknown key"), std::string::npos);
}

TEST(ConfigIoTest, RoundTripsThroughText) {
  SystemConfig config;
  config.mode = DeliveryMode::kIpp;
  config.pull_bw = 0.3;
  config.thres_perc = 0.25;
  config.chop_count = 200;
  config.offset = 77;
  config.noise = 0.15;
  config.mc_prefetch = true;
  config.update_rate = 0.05;
  config.update_zipf_theta = 0.5;
  config.mc_policy = cache::PolicyKind::kLfu;
  config.adaptive_pull_bw = true;
  config.seed = 999;

  SystemConfig parsed;
  ASSERT_EQ(ParseConfigText(ConfigToText(config), &parsed), "");
  EXPECT_EQ(parsed.mode, config.mode);
  EXPECT_EQ(parsed.pull_bw, config.pull_bw);
  EXPECT_EQ(parsed.thres_perc, config.thres_perc);
  EXPECT_EQ(parsed.chop_count, config.chop_count);
  EXPECT_EQ(parsed.offset, config.offset);
  EXPECT_EQ(parsed.noise, config.noise);
  EXPECT_EQ(parsed.mc_prefetch, config.mc_prefetch);
  EXPECT_EQ(parsed.update_rate, config.update_rate);
  EXPECT_EQ(parsed.update_zipf_theta, config.update_zipf_theta);
  EXPECT_EQ(parsed.mc_policy, config.mc_policy);
  EXPECT_EQ(parsed.adaptive_pull_bw, config.adaptive_pull_bw);
  EXPECT_EQ(parsed.seed, config.seed);
  EXPECT_EQ(parsed.disks.sizes, config.disks.sizes);
}

TEST(ConfigIoTest, DefaultConfigRoundTripsValid) {
  SystemConfig config;
  SystemConfig parsed;
  ASSERT_EQ(ParseConfigText(ConfigToText(config), &parsed), "");
  EXPECT_TRUE(parsed.Validate().empty());
}

TEST(ConfigIoTest, ObservabilityKeysApplyAndRoundTrip) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("obs_window", "250", &config), "");
  EXPECT_EQ(config.obs_window, 250.0);
  EXPECT_EQ(ApplyConfigOption("flight_recorder",
                              "drop_rate>0.5,queue_depth>9", &config),
            "");
  EXPECT_EQ(config.flight_recorder, "drop_rate>0.5,queue_depth>9");
  // "off" (and empty) disarm an earlier setting.
  EXPECT_EQ(ApplyConfigOption("flight_recorder", "off", &config), "");
  EXPECT_TRUE(config.flight_recorder.empty());

  config.flight_recorder = "p99>120";
  SystemConfig parsed;
  ASSERT_EQ(ParseConfigText(ConfigToText(config), &parsed), "");
  EXPECT_EQ(parsed.obs_window, 250.0);
  EXPECT_EQ(parsed.flight_recorder, "p99>120");
}

TEST(ConfigIoTest, RemovedKernelKeysAreUnknown) {
  // The kernel has one production path; its former selection knobs are
  // not aliases for it but unknown keys, and the default text no longer
  // mentions them.
  SystemConfig config;
  for (const char* key :
       {"kernel.queue", "kernel.batch_slots", "sim.arrival_spine"}) {
    for (const char* value : {"auto", "heap", "true", "on"}) {
      EXPECT_EQ(ApplyConfigOption(key, value, &config),
                std::string("unknown key: ") + key);
    }
    EXPECT_EQ(ConfigToText(config).find(key), std::string::npos) << key;
  }
}

// Every numeric key with one value it accepts. Integers are unsigned
// 32-bit fields unless `u64`; doubles carry no range of their own here
// (fault.* and obs_window add theirs on top).
struct NumericKey {
  const char* name;
  enum Kind { kU32, kU64, kU32List, kDouble } kind;
  const char* good;
};

const NumericKey kNumericKeys[] = {
    {"server_db_size", NumericKey::kU32, "500"},
    {"server_queue_size", NumericKey::kU32, "4294967295"},
    {"chop_count", NumericKey::kU32, "0"},
    {"cache_size", NumericKey::kU32, "50"},
    {"offset", NumericKey::kU32, "7"},
    {"flight_recorder_max_dumps", NumericKey::kU32, "3"},
    {"fault.mc_max_retries", NumericKey::kU32, "4"},
    {"fault.mc_dead_threshold", NumericKey::kU32, "2"},
    {"fault.shed_distance", NumericKey::kU32, "9"},
    {"disk_sizes", NumericKey::kU32List, "10,40,50"},
    {"disk_freqs", NumericKey::kU32List, "3, 2, 1"},
    {"seed", NumericKey::kU64, "18446744073709551615"},
    {"pull_bw", NumericKey::kDouble, "0.25"},
    {"thres_perc", NumericKey::kDouble, "0.1"},
    {"zipf_theta", NumericKey::kDouble, "0.8"},
    {"noise", NumericKey::kDouble, "0.15"},
    {"mc_think_time", NumericKey::kDouble, "12.5"},
    {"think_time_ratio", NumericKey::kDouble, "25"},
    {"steady_state_perc", NumericKey::kDouble, "0.9"},
    {"mc_retry_interval", NumericKey::kDouble, "30"},
    {"update_rate", NumericKey::kDouble, "0.05"},
    {"update_zipf_theta", NumericKey::kDouble, "0.5"},
    {"obs_window", NumericKey::kDouble, "250"},
    {"fault.slot_loss", NumericKey::kDouble, "0.05"},
    {"fault.slot_corruption", NumericKey::kDouble, "0.01"},
    {"fault.request_loss", NumericKey::kDouble, "0.05"},
    {"fault.request_delay", NumericKey::kDouble, "2"},
    {"fault.outage_start", NumericKey::kDouble, "100"},
    {"fault.outage_duration", NumericKey::kDouble, "10"},
    {"fault.outage_period", NumericKey::kDouble, "400"},
    {"fault.mc_timeout", NumericKey::kDouble, "50"},
    {"fault.mc_backoff", NumericKey::kDouble, "2"},
    {"fault.mc_backoff_cap", NumericKey::kDouble, "500"},
    {"fault.mc_jitter", NumericKey::kDouble, "0.5"},
    {"fault.mc_probe_interval", NumericKey::kDouble, "20"},
    {"fault.shed_hi", NumericKey::kDouble, "0.9"},
    {"fault.shed_lo", NumericKey::kDouble, "0.5"},
    {"fault.degraded_pull_bw", NumericKey::kDouble, "0.3"},
};

TEST(ConfigIoTest, NumericKeysFailClosed) {
  // Wraparound, signs, non-finite doubles and trailing garbage are refused
  // on every numeric key, and a refused value leaves the config untouched
  // (compared through ConfigToText, with every optional line switched on
  // so each field is rendered).
  const char* const bad_everywhere[] = {
      "", "x", "1x", "nan", "NaN", "inf", "-inf", "infinity", "1e999",
  };
  const char* const bad_integers[] = {
      "-1", "+1", "-0", "1.5", "1e3", "0x10", " 1 2",
      "99999999999999999999999",  // Past UINT64_MAX.
  };
  const char* const bad_u32[] = {"4294967296", "4294967396",
                                 "18446744073709551615"};
  for (const NumericKey& key : kNumericKeys) {
    SCOPED_TRACE(key.name);
    SystemConfig config;
    config.fault.slot_loss = 0.01;
    config.flight_recorder_max_dumps = 2;
    config.update_zipf_theta = 0.7;
    config.offset = 5;
    const std::string before = ConfigToText(config);
    std::vector<const char*> bad(std::begin(bad_everywhere),
                                 std::end(bad_everywhere));
    if (key.kind != NumericKey::kDouble) {
      bad.insert(bad.end(), std::begin(bad_integers), std::end(bad_integers));
    }
    if (key.kind == NumericKey::kU32 || key.kind == NumericKey::kU32List) {
      bad.insert(bad.end(), std::begin(bad_u32), std::end(bad_u32));
    }
    if (key.kind == NumericKey::kU32List) {
      bad.push_back("10,-1,50");
      bad.push_back("10,4294967296");
      bad.push_back("10,,50");
    }
    for (const char* value : bad) {
      EXPECT_NE(ApplyConfigOption(key.name, value, &config), "")
          << "accepted '" << value << "'";
      EXPECT_EQ(ConfigToText(config), before) << "after '" << value << "'";
    }
    EXPECT_EQ(ApplyConfigOption(key.name, key.good, &config), "");
  }
}

TEST(ConfigIoTest, ObservabilityKeysRejectBadValuesWithSpecificErrors) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("obs_window", "0", &config),
            "obs_window must be positive");
  EXPECT_EQ(ApplyConfigOption("obs_window", "-5", &config),
            "obs_window must be positive");
  EXPECT_EQ(ApplyConfigOption("obs_window", "soon", &config),
            "invalid value for obs_window");
  // The trigger grammar's own diagnostics surface through config parsing.
  EXPECT_EQ(ApplyConfigOption("flight_recorder", "bogus>1", &config),
            "flight_recorder: unknown trigger \"bogus\" "
            "(know drop_rate, p99, queue_depth, shed_rate, loss_rate)");
  EXPECT_EQ(ApplyConfigOption("flight_recorder", "p99=3", &config),
            "flight_recorder: trigger \"p99=3\" is missing '>' "
            "(want name>threshold)");
  // A bad spec never half-applies.
  EXPECT_TRUE(config.flight_recorder.empty());
  // Validate() re-checks a directly poked config.
  config.flight_recorder = "p99>nope";
  EXPECT_EQ(config.Validate(),
            "flight_recorder: trigger \"p99\" has unparsable threshold "
            "\"nope\"");
}

TEST(ConfigIoTest, EveryDoubleKeyRoundTripsExactly) {
  // Ten significant digits, more than %g's six: a printer that wrote %g
  // alone would round each of them.
  struct DoubleKey {
    const char* name;
    double (*at)(const SystemConfig&);
  };
#define KEY(name, member) \
  DoubleKey { name, [](const SystemConfig& c) -> double { return c.member; } }
  const DoubleKey keys[] = {
      KEY("pull_bw", pull_bw),
      KEY("thres_perc", thres_perc),
      KEY("zipf_theta", zipf_theta),
      KEY("noise", noise),
      KEY("mc_think_time", mc_think_time),
      KEY("think_time_ratio", think_time_ratio),
      KEY("steady_state_perc", steady_state_perc),
      KEY("mc_retry_interval", mc_retry_interval),
      KEY("update_rate", update_rate),
      KEY("update_zipf_theta", update_zipf_theta.value_or(-1.0)),
      KEY("obs_window", obs_window),
      KEY("fault.slot_loss", fault.slot_loss),
      KEY("fault.slot_corruption", fault.slot_corruption),
      KEY("fault.request_loss", fault.request_loss),
      KEY("fault.request_delay", fault.request_delay),
      KEY("fault.outage_start", fault.outage_start),
      KEY("fault.outage_duration", fault.outage_duration),
      KEY("fault.outage_period", fault.outage_period),
      KEY("fault.mc_timeout", fault.mc_timeout),
      KEY("fault.mc_backoff", fault.mc_backoff),
      KEY("fault.mc_backoff_cap", fault.mc_backoff_cap),
      KEY("fault.mc_jitter", fault.mc_jitter),
      KEY("fault.mc_probe_interval", fault.mc_probe_interval),
      KEY("fault.shed_hi", fault.shed_hi),
      KEY("fault.shed_lo", fault.shed_lo),
      KEY("fault.degraded_pull_bw", fault.degraded_pull_bw),
  };
#undef KEY
  SystemConfig config;
  for (const DoubleKey& key : keys) {
    const std::string value =
        key.name == std::string("fault.mc_backoff") ? "1.234567891"
                                                    : "0.1234567891";
    ASSERT_EQ(ApplyConfigOption(key.name, value, &config), "") << key.name;
    ASSERT_EQ(key.at(config), std::stod(value)) << key.name;
  }
  SystemConfig parsed;
  ASSERT_EQ(ParseConfigText(ConfigToText(config), &parsed), "");
  for (const DoubleKey& key : keys) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(key.at(parsed)),
              std::bit_cast<std::uint64_t>(key.at(config)))
        << key.name << " read back as " << key.at(parsed);
  }
}

TEST(ConfigIoTest, NulInsideADoubleIsRefused) {
  // strtod stops reading at a NUL; the value goes on past it.
  SystemConfig config;
  const std::string text = std::string("thres_perc = 0.25") + '\0' + "x\n";
  EXPECT_EQ(ParseConfigText(text, &config),
            "line 1: invalid value for thres_perc");
  EXPECT_EQ(config.thres_perc, 0.0);
}

}  // namespace
}  // namespace bdisk::core
