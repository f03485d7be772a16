#include "obs/trace_sink.h"

#include <cstdio>

#include "sim/check.h"

namespace bdisk::obs {

const char* SpanEventName(SpanEvent event) {
  switch (event) {
    case SpanEvent::kRequest:
      return "request";
    case SpanEvent::kCacheHit:
      return "cache_hit";
    case SpanEvent::kCacheMiss:
      return "cache_miss";
    case SpanEvent::kSubmitAccepted:
      return "submit_accepted";
    case SpanEvent::kSubmitCoalesced:
      return "submit_coalesced";
    case SpanEvent::kSubmitDropped:
      return "submit_dropped";
    case SpanEvent::kSubmitFiltered:
      return "submit_filtered";
    case SpanEvent::kRetry:
      return "retry";
    case SpanEvent::kSlotPush:
      return "slot_push";
    case SpanEvent::kSlotPull:
      return "slot_pull";
    case SpanEvent::kSlotIdle:
      return "slot_idle";
    case SpanEvent::kDelivery:
      return "delivery";
    case SpanEvent::kInvalidate:
      return "invalidate";
    case SpanEvent::kSubmitShed:
      return "submit_shed";
    case SpanEvent::kSubmitOutage:
      return "submit_outage";
    case SpanEvent::kSubmitLost:
      return "submit_lost";
    case SpanEvent::kSlotLost:
      return "slot_lost";
    case SpanEvent::kSlotCorrupt:
      return "slot_corrupt";
    case SpanEvent::kTimeout:
      return "timeout";
    case SpanEvent::kFallback:
      return "fallback";
    case SpanEvent::kAbandon:
      return "abandon";
    case SpanEvent::kDegradedEnter:
      return "degraded_enter";
    case SpanEvent::kDegradedExit:
      return "degraded_exit";
    case SpanEvent::kOutageStart:
      return "outage_start";
    case SpanEvent::kOutageEnd:
      return "outage_end";
    case SpanEvent::kMaxValue:
      break;
  }
  return "?";
}

SpanEvent SpanEventFromName(const std::string& name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanEvent::kMaxValue);
       ++i) {
    const auto event = static_cast<SpanEvent>(i);
    if (name == SpanEventName(event)) return event;
  }
  return SpanEvent::kMaxValue;
}

bool ParseTraceJsonlLine(const std::string& line, SpanRecord* out) {
  char name[32];
  long long client = 0;
  long long page = 0;
  const int matched = std::sscanf(
      line.c_str(),
      " { \"t\" : %lf , \"ev\" : \"%31[^\"]\" , \"client\" : %lld , "
      "\"page\" : %lld , \"v\" : %lf }",
      &out->time, name, &client, &page, &out->value);
  if (matched != 5) return false;
  out->event = SpanEventFromName(name);
  if (out->event == SpanEvent::kMaxValue) return false;
  out->client =
      client < 0 ? kNoClient : static_cast<std::uint32_t>(client);
  out->page = page < 0 ? kNoTracePage : static_cast<std::uint32_t>(page);
  return true;
}

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity) {
  BDISK_CHECK_MSG(capacity >= 1, "trace capacity must be positive");
  ring_.reserve(capacity);
}

void TraceSink::Record(sim::SimTime time, SpanEvent event,
                       std::uint32_t client, std::uint32_t page,
                       double value) {
  BDISK_DCHECK(event < SpanEvent::kMaxValue);
  ++total_;
  const SpanRecord record{time, event, client, page, value};
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[next_] = record;
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<SpanRecord> TraceSink::Events() const {
  std::vector<SpanRecord> ordered;
  ordered.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    ordered = ring_;
  } else {
    // Ring is full: next_ points at the oldest entry.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      ordered.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return ordered;
}

namespace {

long long SignedId(std::uint32_t id) {
  return id == kNoClient ? -1LL : static_cast<long long>(id);
}

}  // namespace

std::string TraceSink::ToJsonl(sim::SimTime since) const {
  const std::vector<SpanRecord> events = Events();
  auto first = events.begin();
  while (first != events.end() && first->time < since) ++first;
  std::string out;
  char line[160];
  for (auto it = first; it != events.end(); ++it) {
    const SpanRecord& r = *it;
    std::snprintf(line, sizeof(line),
                  "{\"t\":%.3f,\"ev\":\"%s\",\"client\":%lld,"
                  "\"page\":%lld,\"v\":%g}\n",
                  r.time, SpanEventName(r.event), SignedId(r.client),
                  SignedId(r.page), r.value);
    out += line;
  }
  return out;
}

}  // namespace bdisk::obs
