#include "core/experiment.h"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/check.h"
#include "sim/cpu_budget.h"

namespace bdisk::core {

std::vector<SweepOutcome> RunSweep(const std::vector<SweepPoint>& points,
                                   const SteadyStateProtocol& steady,
                                   const WarmupProtocol& warmup,
                                   unsigned num_threads) {
  std::vector<SweepOutcome> outcomes(points.size());
  if (points.empty()) return outcomes;

  if (num_threads == 0) {
    num_threads = std::max(1U, std::thread::hardware_concurrency());
  }
  num_threads = std::min<unsigned>(num_threads,
                                   static_cast<unsigned>(points.size()));

  // Immutable per-config artifacts (pattern, program, value array) are
  // seed-independent, so points and replications that agree on the key
  // fields build them once and share.
  ArtifactCache artifacts;

  // A throw on a worker thread would otherwise std::terminate the whole
  // process; capture the first one and rethrow it to the caller after the
  // join. `failed` makes the remaining workers stop claiming points.
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      const SweepPoint& point = points[i];
      try {
        // System's constructor aborts on an invalid config (library code
        // never throws); validating here instead turns a bad sweep point
        // into an exception the caller can handle.
        const std::string error = point.config.Validate();
        if (!error.empty()) {
          throw std::invalid_argument("sweep point " + std::to_string(i) +
                                      ": " + error);
        }
        // Each point gets its own System (and RNG streams); results do not
        // depend on which thread runs which point.
        System system(point.config, artifacts.Get(point.config));
        outcomes[i].point = point;
        outcomes[i].result = point.warmup_run
                                 ? system.RunWarmup(warmup)
                                 : system.RunSteadyState(steady);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (num_threads == 1) {
    worker();
  } else {
    // The extra workers hold CPUs that a virtual client's arrival producer
    // could otherwise claim (sim/cpu_budget.h), so a sweep as wide as the
    // CPUs starts no producer.
    const sim::CpuClaims workers(static_cast<int>(num_threads) - 1);
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return outcomes;
}

ReplicationResult RunReplicated(const SystemConfig& config,
                                std::uint32_t replications,
                                const SteadyStateProtocol& steady,
                                unsigned num_threads) {
  BDISK_CHECK_MSG(replications >= 1, "need at least one replication");
  std::vector<SweepPoint> points(replications);
  for (std::uint32_t i = 0; i < replications; ++i) {
    points[i].curve = "rep" + std::to_string(i);
    points[i].x = static_cast<double>(i);
    points[i].config = config;
    points[i].config.seed = config.seed + i;
  }
  const std::vector<SweepOutcome> outcomes =
      RunSweep(points, steady, {}, num_threads);

  ReplicationResult result;
  result.replications.reserve(replications);
  for (const SweepOutcome& outcome : outcomes) {
    result.means.Add(outcome.result.mean_response);
    result.replications.push_back(outcome.result);
  }
  if (result.means.Count() >= 2) {
    result.ci95_half_width = 1.96 * result.means.StdError();
  }
  return result;
}

}  // namespace bdisk::core
