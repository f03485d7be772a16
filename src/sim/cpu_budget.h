#ifndef BDISK_SIM_CPU_BUDGET_H_
#define BDISK_SIM_CPU_BUDGET_H_

namespace bdisk::sim {

// One process-wide count of the threads that simulation work keeps busy.
// It starts at 1, for the thread that calls in. core::RunSweep adds its
// extra workers for the length of a sweep, and a virtual client's arrival
// producer adds itself while it lives. A helper thread starts only on a
// CPU it can claim, while the count is below the CPUs this process may run
// on: a sweep that fills every CPU starts none, and neither does a process
// pinned to one CPU.

/// The CPUs that sched_getaffinity grants this process, read once (at
/// least 1).
int AllowedCpus();

/// Adds one thread to the count if the count is below AllowedCpus(), and
/// returns whether it did. ReleaseCpuClaims(1) gives the claim back.
bool TryClaimSpareCpu();

/// Takes `n` threads off the count.
void ReleaseCpuClaims(int n);

/// Counts `n` threads for its lifetime, whatever the count already is: a
/// sweep's extra workers, which run whether or not a CPU is spare.
class CpuClaims {
 public:
  explicit CpuClaims(int n);
  ~CpuClaims() { ReleaseCpuClaims(n_); }

  CpuClaims(const CpuClaims&) = delete;
  CpuClaims& operator=(const CpuClaims&) = delete;

 private:
  int n_;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_CPU_BUDGET_H_
