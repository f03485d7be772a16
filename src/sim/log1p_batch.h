#ifndef BDISK_SIM_LOG1P_BATCH_H_
#define BDISK_SIM_LOG1P_BATCH_H_

#include <span>

namespace bdisk::sim {

/// Replaces every `values[i]` with `std::log1p(values[i])`, bit for bit.
///
/// The virtual client's think times are `-mean * log1p(-u)` for uniforms
/// u, and at heavy load that log1p is most of a run's host time. On a CPU
/// with AVX2 and FMA whose libm log1p agrees with the vector kernel on
/// every probe input (checked once per process), four lanes at a time go
/// through a transcription of glibc's `__log1p_fma`, and the few lanes
/// off its common path through `std::log1p`. Anywhere else every value
/// goes through `std::log1p`. Either way the results are `std::log1p`'s,
/// so no trajectory depends on which path ran (DESIGN.md, "The batched
/// arrival spine").
void Log1pInPlace(std::span<double> values);

/// Whether Log1pInPlace runs the vector kernel in this process.
bool Log1pKernelActive();

/// The pieces Log1pInPlace dispatches between, for the kernel's tests.
namespace log1p_detail {

using Kernel = void (*)(std::span<double>);

/// Whether the CPU (and the OS) runs AVX2 and FMA code.
bool CpuHasAvx2Fma();

/// The vector kernel. Call only when CpuHasAvx2Fma().
void Log1pAvx2Fma(std::span<double> values);

/// The fallback: `std::log1p` on every value.
void Log1pScalar(std::span<double> values);

/// The inputs the probe checks, all on the kernel's own path: inputs on
/// which glibc's FMA and SSE2 builds disagree, and branch edges.
std::span<const double> ProbeInputs();

/// Whether `kernel` returns `std::log1p`'s bits on every probe input.
bool ProbeAgrees(Kernel kernel);

}  // namespace log1p_detail
}  // namespace bdisk::sim

#endif  // BDISK_SIM_LOG1P_BATCH_H_
