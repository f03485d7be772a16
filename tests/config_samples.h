// Config samples shared by the tests that walk every config key.

#ifndef BDISK_TESTS_CONFIG_SAMPLES_H_
#define BDISK_TESTS_CONFIG_SAMPLES_H_

namespace bdisk::core {

// Every key ConfigToText can write, each away from its default: the
// optional lines set and the fault plan enabled.
inline constexpr const char* kEveryKeyNonDefault[][2] = {
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

}  // namespace bdisk::core

#endif  // BDISK_TESTS_CONFIG_SAMPLES_H_
