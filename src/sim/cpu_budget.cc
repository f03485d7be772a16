#include "sim/cpu_budget.h"

#include <sched.h>

#include <algorithm>
#include <atomic>

namespace bdisk::sim {

namespace {

std::atomic<int> claims{1};

}  // namespace

int AllowedCpus() {
  static const int cpus = [] {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
  }();
  return cpus;
}

bool TryClaimSpareCpu() {
  const int cpus = AllowedCpus();
  int count = claims.load(std::memory_order_relaxed);
  while (count < cpus) {
    if (claims.compare_exchange_weak(count, count + 1,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void ReleaseCpuClaims(int n) {
  claims.fetch_sub(n, std::memory_order_relaxed);
}

CpuClaims::CpuClaims(int n) : n_(n) {
  claims.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace bdisk::sim
