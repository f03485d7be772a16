#ifndef BDISK_OBS_TRACE_SINK_H_
#define BDISK_OBS_TRACE_SINK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace bdisk::obs {

/// Well-known client identities in traces. The measured client is 0, the
/// virtual client 1; server-originated records carry kNoClient.
inline constexpr std::uint32_t kMeasuredClientId = 0;
inline constexpr std::uint32_t kVirtualClientId = 1;
inline constexpr std::uint32_t kNoClient = 0xFFFFFFFFu;

/// Sentinel page for records with no page (idle slots).
inline constexpr std::uint32_t kNoTracePage = 0xFFFFFFFFu;

/// Kinds of system-wide trace records. Together they let a single pull's
/// life be reconstructed by (client, page):
/// request -> cache_miss -> submit_* -> slot_pull -> delivery.
enum class SpanEvent : std::uint8_t {
  kRequest = 0,      // A client started an access to `page`.
  kCacheHit,         // The access was satisfied from the client cache.
  kCacheMiss,        // The access missed; the client now waits for `page`.
  kSubmitAccepted,   // Backchannel request queued at the server.
  kSubmitCoalesced,  // Backchannel request merged with a queued one.
  kSubmitDropped,    // Backchannel request discarded (queue full).
  kSubmitFiltered,   // Threshold filter suppressed the request client-side.
  kRetry,            // Client re-sent a pull for an unscheduled page.
  kSlotPush,         // Slot decision: a scheduled page goes out at `time`.
  kSlotPull,         // Slot decision: a pulled page goes out at `time`.
  kSlotIdle,         // Slot decision: nothing goes out.
  kDelivery,         // Client received the page it was waiting for;
                     // `value` is the response time.
  kInvalidate,       // A cached copy was invalidated (volatile data).
  // --- bdisk::fault records (absent unless a FaultPlan is enabled) ---
  kSubmitShed,       // Degraded-mode admission control shed the request.
  kSubmitOutage,     // Request discarded inside a server outage window.
  kSubmitLost,       // Request lost on the backchannel; server never saw it.
  kSlotLost,         // Slot's page lost in transit; nobody received it.
  kSlotCorrupt,      // Slot's page arrived corrupted and was discarded.
  kTimeout,          // Client request timeout fired; `value` is the armed
                     // timeout that elapsed.
  kFallback,         // Client gave up pulling and now waits on the push
                     // schedule (retries exhausted or backchannel dead).
  kAbandon,          // Client abandoned an unscheduled-page request after
                     // the retry budget; `value` is the elapsed time.
  kDegradedEnter,    // Server entered degraded mode; `value` is queue depth.
  kDegradedExit,     // Server recovered from degraded mode.
  kOutageStart,      // Server outage window opened.
  kOutageEnd,        // Server outage window closed.
  kMaxValue,         // Sentinel; keep last.
};

/// Human-readable record kind name (stable, used in JSONL output).
const char* SpanEventName(SpanEvent event);

/// Inverse of SpanEventName; kMaxValue for an unknown name.
SpanEvent SpanEventFromName(const std::string& name);

/// One trace record. Slot records use the decision time: the page occupies
/// the frontchannel over [time, time+1) and is delivered at time+1.
struct SpanRecord {
  sim::SimTime time;
  SpanEvent event;
  std::uint32_t client;  // kNoClient for server-side records.
  std::uint32_t page;    // kNoTracePage for idle slots.
  double value;          // Event-specific payload (delivery: response time).
};

/// Parses one ToJsonl() line back into a record (the -1 sentinels map back
/// to kNoClient/kNoTracePage). Returns false on malformed input or an
/// unknown event name. trace_report and the round-trip tests share this, so
/// the exporter and the parser cannot drift.
bool ParseTraceJsonlLine(const std::string& line, SpanRecord* out);

/// A bounded, system-wide structured trace.
///
/// Ring semantics: the most recent `capacity` records are retained (older
/// ones are overwritten and counted in DroppedEvents()), so at all times
/// DroppedEvents() + Events().size() == TotalEvents(). Exports as JSONL,
/// one object per record — the format tools/trace_report consumes.
class TraceSink {
 public:
  /// `capacity` >= 1 bounds memory; default keeps the last 256Ki records.
  explicit TraceSink(std::size_t capacity = 1 << 18);

  /// Appends one record.
  void Record(sim::SimTime time, SpanEvent event, std::uint32_t client,
              std::uint32_t page, double value = 0.0);

  /// Records currently retained, oldest first.
  std::vector<SpanRecord> Events() const;

  /// Total records ever recorded / lost to the ring bound.
  std::uint64_t TotalEvents() const { return total_; }
  std::uint64_t DroppedEvents() const { return total_ - ring_.size(); }

  /// One JSON object per line:
  /// {"t":2.0,"ev":"delivery","client":0,"page":5,"v":2.0}
  /// `client` is -1 for server-side records, `page` -1 for idle slots.
  /// Encodes the retained records from the first one at or after `since`
  /// on, in order (every record by default: times are nonnegative). The
  /// flight recorder's trailing slice is ToJsonl(window start).
  std::string ToJsonl(sim::SimTime since = 0.0) const;

 private:
  std::size_t capacity_;
  std::vector<SpanRecord> ring_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace bdisk::obs

#endif  // BDISK_OBS_TRACE_SINK_H_
