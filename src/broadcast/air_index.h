#ifndef BDISK_BROADCAST_AIR_INDEX_H_
#define BDISK_BROADCAST_AIR_INDEX_H_

#include <cstdint>

namespace bdisk::broadcast {

/// (1,m) air indexing, after Imielinski/Viswanathan/Badrinath's "Energy
/// Efficient Indexing on Air" ([Imie94b], cited in §5; the paper's
/// footnote 2 notes that broadcast predictability "can be used to reduce
/// power consumption in mobile networks").
///
/// An index of `index_slots` buckets is interleaved `m` times per cycle at
/// even spacing. A client wanting a page (a) probes until the next index
/// segment, (b) reads the index, (c) dozes until the page's slot, and
/// (d) reads the page. Doze time costs (almost) no power; *tuning time*
/// (active slots) is the energy proxy, traded off against access latency.
struct AirIndexConfig {
  /// Data slots per cycle (e.g. the Broadcast Disk major cycle length).
  std::uint32_t data_slots = 0;
  /// Size of one index segment, in slots.
  std::uint32_t index_slots = 1;
  /// Number of index segments per cycle (the "m" of (1,m)).
  std::uint32_t m = 1;
};

/// Total cycle length with the index interleaved: data + m * index.
double IndexedCycleLength(const AirIndexConfig& config);

/// Expected access latency in broadcast units for a uniformly random
/// tune-in and target slot: wait-to-index + index read + doze-to-page +
/// page transmission.
double ExpectedLatency(const AirIndexConfig& config);

/// Expected tuning time (active slots): initial probe + index read + page
/// read. Independent of m — the whole point of indexing.
double ExpectedTuningTime(const AirIndexConfig& config);

/// Latency / tuning without any index: the client stays awake until its
/// page arrives (tuning == latency == data/2 + 1).
double UnindexedLatency(std::uint32_t data_slots);
double UnindexedTuningTime(std::uint32_t data_slots);

/// The latency-minimizing index frequency: m* = round(sqrt(data/index)),
/// at least 1 — the classic (1,m) optimum.
std::uint32_t OptimalIndexFrequency(std::uint32_t data_slots,
                                    std::uint32_t index_slots);

}  // namespace bdisk::broadcast

#endif  // BDISK_BROADCAST_AIR_INDEX_H_
