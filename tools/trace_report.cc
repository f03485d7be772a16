// trace_report — analyzer for bdisk_sim --trace JSONL output.
//
// Reads a structured trace (one JSON object per line, as written by
// obs::TraceSink::ToJsonl) and reports:
//   * per-page latency breakdown (deliveries, mean/max wait) for the most
//     requested pages,
//   * reconstructed request → transmit → delivery spans, with a few
//     examples laid out as timelines,
//   * a slot-utilization timeline (push/pull/idle mix per time bin).
//
// With --spans, switches to the request-lifecycle attribution report built
// on obs::SpanAssembler: per-request waterfalls, the phase breakdown
// (queue wait / broadcast wait / transmit, summing to the mean response),
// and per-page / per-probability-band attribution tables.
//
//   bdisk_sim --set mode=ipp --trace out.jsonl
//   trace_report out.jsonl
//   trace_report out.jsonl --spans
//
// Parsing and joining share the library code the tests pin
// (obs::ParseTraceJsonlLine, obs::SpanAssembler), so this tool cannot
// drift from the exporter.
//
// Exits 1 if the trace contains no reconstructible span (e.g. the file is
// not a bdisk trace), 2 on usage errors.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cli_numbers.h"
#include "obs/span_assembler.h"
#include "obs/trace_sink.h"
#include "write_output.h"

namespace {

using bdisk::obs::PhaseBreakdown;
using bdisk::obs::RequestSpan;
using bdisk::obs::SpanEvent;
using bdisk::obs::SpanOutcome;
using bdisk::obs::SpanRecord;

void PrintUsage() {
  std::printf(
      "usage: trace_report FILE.jsonl [--spans] [--top N] [--bins N]\n"
      "                    [--examples N] [--truncated] [--csv FILE]\n"
      "  --spans       request-lifecycle attribution report (waterfalls,\n"
      "                phase breakdown, per-page and per-band tables)\n"
      "  --csv FILE    with --spans: also export the phase breakdown and\n"
      "                the per-page / per-band attribution tables as one\n"
      "                long-format CSV (\"-\" for stdout)\n"
      "  --top N       pages in the per-page tables (default 10)\n"
      "  --bins N      slot-utilization time bins (default 20)\n"
      "  --examples N  example spans/waterfalls to print (default 5)\n"
      "  --truncated   treat the file head as clipped (ring overflow);\n"
      "                auto-detected when the trace does not start at t=0\n");
}

const char* OutcomeLabel(const RequestSpan& s) {
  return bdisk::obs::SpanOutcomeName(s.outcome);
}

// --- Aggregation over spans ------------------------------------------------

struct PageAgg {
  std::uint64_t requests = 0;  // Complete, non-truncated spans.
  std::uint64_t hits = 0;
  double response_sum = 0.0;
  double queue_wait_sum = 0.0;
  double broadcast_wait_sum = 0.0;
  double response_max = 0.0;

  double MeanResponse() const {
    return requests == 0 ? 0.0
                         : response_sum / static_cast<double>(requests);
  }
};

std::map<std::uint32_t, PageAgg> AggregateByPage(
    const std::vector<RequestSpan>& spans) {
  std::map<std::uint32_t, PageAgg> pages;
  for (const RequestSpan& s : spans) {
    if (!s.Complete() || s.truncated) continue;
    PageAgg& agg = pages[s.page];
    ++agg.requests;
    if (s.outcome == SpanOutcome::kCacheHit) ++agg.hits;
    agg.response_sum += s.response;
    agg.queue_wait_sum += s.QueueWait();
    agg.broadcast_wait_sum += s.BroadcastWait();
    agg.response_max = std::max(agg.response_max, s.response);
  }
  return pages;
}

void PrintWaterfalls(const std::vector<RequestSpan>& spans,
                     std::size_t examples) {
  std::printf("\nper-request waterfalls (first %zu non-hit spans)\n",
              examples);
  std::size_t shown = 0;
  for (const RequestSpan& s : spans) {
    if (shown >= examples) break;
    if (!s.Complete() || s.truncated ||
        s.outcome == SpanOutcome::kCacheHit) {
      continue;
    }
    ++shown;
    std::printf("  client %" PRIu32 " page %" PRIu32 " [%s]\n", s.client,
                s.page, OutcomeLabel(s));
    std::printf("    t=%10.1f  request (miss%s)\n", s.request_time,
                s.filtered ? ", filtered" : "");
    if (s.submitted) {
      std::printf("    t=%10.1f  submit%s%s\n", s.submit_time,
                  s.coalesced ? " (coalesced)" : "",
                  s.drops > 0 ? " (later drops)" : "");
    }
    if (s.retries > 0) {
      std::printf("    %13s retries x%" PRIu32 "\n", "", s.retries);
    }
    if (s.slot_time >= 0.0) {
      const double wait = s.outcome == SpanOutcome::kPullServed
                              ? s.QueueWait()
                              : s.BroadcastWait();
      const char* wait_name = s.outcome == SpanOutcome::kPullServed
                                  ? "queue_wait"
                                  : "broadcast_wait";
      std::printf("    t=%10.1f  slot %-5s %s=%.1f\n", s.slot_time,
                  s.outcome == SpanOutcome::kPushServed ? "push" : "pull",
                  wait_name, wait);
    }
    std::printf("    t=%10.1f  delivery   transmit=%.1f  response=%.1f\n",
                s.delivery_time, s.Transmit(), s.response);
  }
  if (shown == 0) std::printf("  (none)\n");
}

void PrintPhaseBreakdown(const PhaseBreakdown& b) {
  std::printf("\nphase attribution (complete, non-truncated spans)\n");
  std::printf("  spans %" PRIu64 "  (hits %" PRIu64 ", pull %" PRIu64
              ", snooped %" PRIu64 ", push %" PRIu64 ")\n",
              b.spans, b.hits, b.pull_served, b.snooped, b.push_served);
  std::printf("  excluded: truncated %" PRIu64 ", incomplete %" PRIu64 "\n",
              b.truncated, b.incomplete);
  std::printf("  coalesced spans %" PRIu64 ", dropped submits %" PRIu64
              ", retries %" PRIu64 "\n",
              b.coalesced, b.drops, b.retries);
  std::printf("  %-20s %10s\n", "phase", "mean");
  std::printf("  %-20s %10.3f\n", "queue wait", b.mean_queue_wait);
  std::printf("  %-20s %10.3f\n", "broadcast wait", b.mean_broadcast_wait);
  std::printf("  %-20s %10.3f\n", "transmit", b.mean_transmit);
  if (b.mean_other != 0.0) {
    std::printf("  %-20s %10.3f\n", "other", b.mean_other);
  }
  std::printf("  %-20s %10.3f\n", "= mean response", b.mean_response);
}

void PrintPerPageAttribution(const std::map<std::uint32_t, PageAgg>& pages,
                             std::size_t top_n) {
  std::vector<std::pair<std::uint32_t, PageAgg>> ranked(pages.begin(),
                                                        pages.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.requests != b.second.requests) {
      return a.second.requests > b.second.requests;
    }
    return a.first < b.first;
  });
  std::printf("\nper-page attribution (top %zu by requests)\n",
              std::min(top_n, ranked.size()));
  std::printf("%8s %9s %7s %10s %10s %10s %9s\n", "page", "requests",
              "hit%", "mean resp", "q-wait", "bc-wait", "max resp");
  for (std::size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    const PageAgg& a = ranked[i].second;
    const double n = static_cast<double>(a.requests);
    std::printf("%8" PRIu32 " %9" PRIu64 " %6.1f%% %10.2f %10.2f %10.2f "
                "%9.1f\n",
                ranked[i].first, a.requests,
                100.0 * static_cast<double>(a.hits) / n, a.MeanResponse(),
                a.queue_wait_sum / n, a.broadcast_wait_sum / n,
                a.response_max);
  }
}

// Bands of roughly equal *request mass*: pages ranked by observed request
// count, cut where cumulative requests cross each 20% of the total. Band 1
// is the empirically hottest slice — the observable stand-in for the
// access-probability deciles the workload generator used.
struct BandRow {
  int band = 0;
  std::size_t pages = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  double response_sum = 0.0;
  double queue_wait_sum = 0.0;
  double broadcast_wait_sum = 0.0;
};

std::vector<BandRow> ComputeBands(
    const std::map<std::uint32_t, PageAgg>& pages) {
  std::vector<std::pair<std::uint32_t, PageAgg>> ranked(pages.begin(),
                                                        pages.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.requests != b.second.requests) {
      return a.second.requests > b.second.requests;
    }
    return a.first < b.first;
  });
  std::uint64_t total_requests = 0;
  for (const auto& [page, agg] : ranked) total_requests += agg.requests;
  std::vector<BandRow> rows;
  if (total_requests == 0) return rows;

  constexpr int kBands = 5;
  std::size_t i = 0;
  std::uint64_t cumulative = 0;
  for (int band = 1; band <= kBands && i < ranked.size(); ++band) {
    const std::uint64_t limit =
        total_requests * static_cast<std::uint64_t>(band) / kBands;
    BandRow row;
    row.band = band;
    while (i < ranked.size() && (cumulative < limit || row.pages == 0)) {
      const PageAgg& a = ranked[i].second;
      cumulative += a.requests;
      row.requests += a.requests;
      row.hits += a.hits;
      row.response_sum += a.response_sum;
      row.queue_wait_sum += a.queue_wait_sum;
      row.broadcast_wait_sum += a.broadcast_wait_sum;
      ++row.pages;
      ++i;
    }
    if (row.requests > 0) rows.push_back(row);
  }
  return rows;
}

void PrintPerBandAttribution(const std::map<std::uint32_t, PageAgg>& pages) {
  const std::vector<BandRow> rows = ComputeBands(pages);
  if (rows.empty()) return;
  std::printf("\nper-probability-band attribution (5 bands of ~20%% "
              "request mass, hottest first)\n");
  std::printf("%6s %8s %9s %7s %10s %10s %10s\n", "band", "pages",
              "requests", "hit%", "mean resp", "q-wait", "bc-wait");
  for (const BandRow& row : rows) {
    const double n = static_cast<double>(row.requests);
    std::printf("%6d %8zu %9" PRIu64 " %6.1f%% %10.2f %10.2f %10.2f\n",
                row.band, row.pages, row.requests,
                100.0 * static_cast<double>(row.hits) / n,
                row.response_sum / n, row.queue_wait_sum / n,
                row.broadcast_wait_sum / n);
  }
}

// Long-format CSV of the --spans report: one rectangular table whose
// `section` column distinguishes the phase breakdown ("phase"), the
// per-page attribution ("page", every page — no top-N clipping), and the
// request-mass bands ("band"). Spreadsheet- and pandas-friendly.
bool WriteSpansCsv(const std::string& path, const PhaseBreakdown& b,
                   const std::map<std::uint32_t, PageAgg>& pages) {
  std::string body;
  body +=
      "section,key,pages,requests,hit_pct,mean_response,mean_queue_wait,"
      "mean_broadcast_wait,mean_transmit,max_response\n";
  char line[256];
  const auto append_row = [&body, &line](const char* section,
                                         const std::string& key,
                                         std::size_t page_count,
                                         std::uint64_t requests,
                                         double hit_pct, double mean_response,
                                         double queue_wait,
                                         double broadcast_wait) {
    std::snprintf(line, sizeof(line),
                  "%s,%s,%zu,%" PRIu64 ",%.4f,%.6g,%.6g,%.6g,,\n", section,
                  key.c_str(), page_count, requests, hit_pct, mean_response,
                  queue_wait, broadcast_wait);
    body += line;
  };
  std::snprintf(line, sizeof(line),
                "phase,all,%zu,%" PRIu64 ",%.4f,%.6g,%.6g,%.6g,%.6g,\n",
                pages.size(), b.spans,
                b.spans == 0 ? 0.0
                             : 100.0 * static_cast<double>(b.hits) /
                                   static_cast<double>(b.spans),
                b.mean_response, b.mean_queue_wait, b.mean_broadcast_wait,
                b.mean_transmit);
  body += line;
  for (const auto& [page, a] : pages) {
    const double n = static_cast<double>(a.requests);
    std::snprintf(line, sizeof(line),
                  "page,%" PRIu32 ",1,%" PRIu64 ",%.4f,%.6g,%.6g,%.6g,,%.6g\n",
                  page, a.requests,
                  100.0 * static_cast<double>(a.hits) / n, a.MeanResponse(),
                  a.queue_wait_sum / n, a.broadcast_wait_sum / n,
                  a.response_max);
    body += line;
  }
  for (const BandRow& row : ComputeBands(pages)) {
    const double n = static_cast<double>(row.requests);
    append_row("band", std::to_string(row.band), row.pages, row.requests,
               100.0 * static_cast<double>(row.hits) / n,
               row.response_sum / n, row.queue_wait_sum / n,
               row.broadcast_wait_sum / n);
  }
  return bdisk::cli::WriteOutput(path, body);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top_n = 10;
  std::size_t bins = 20;
  std::size_t examples = 5;
  bool spans_mode = false;
  bool force_truncated = false;
  std::string csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--spans") {
      spans_mode = true;
    } else if (arg == "--truncated") {
      force_truncated = true;
    } else if (arg == "--csv") {
      csv_path = next_value("--csv");
    } else if (arg == "--top") {
      top_n = static_cast<std::size_t>(
          bdisk::cli::UnsignedFlag("--top", next_value("--top"), 0, SIZE_MAX));
    } else if (arg == "--bins") {
      bins = static_cast<std::size_t>(bdisk::cli::UnsignedFlag(
          "--bins", next_value("--bins"), 0, SIZE_MAX));
    } else if (arg == "--examples") {
      examples = static_cast<std::size_t>(bdisk::cli::UnsignedFlag(
          "--examples", next_value("--examples"), 0, SIZE_MAX));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "multiple input files given\n");
      return 2;
    }
  }
  if (path.empty() || bins == 0) {
    PrintUsage();
    return 2;
  }
  if (!csv_path.empty() && !spans_mode) {
    std::fprintf(stderr, "--csv needs --spans (it exports that report)\n");
    return 2;
  }

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }

  std::vector<SpanRecord> records;
  std::uint64_t lines = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    ++lines;
    SpanRecord r;
    if (bdisk::obs::ParseTraceJsonlLine(line, &r)) records.push_back(r);
  }

  // A full trace starts with the measured client's first access at t=0; a
  // later first timestamp means the ring dropped its head.
  const bool truncated =
      force_truncated || (!records.empty() && records.front().time > 0.0);

  bdisk::obs::SpanAssembler assembler(truncated);
  assembler.FeedAll(records);
  const std::vector<RequestSpan> spans = assembler.Finish();
  const PhaseBreakdown breakdown = bdisk::obs::Attribute(spans);

  std::printf("trace: %s — %" PRIu64 " lines, %zu parsed%s\n", path.c_str(),
              lines, records.size(),
              truncated ? " (head truncated)" : "");
  if (assembler.OrphanRecords() > 0) {
    std::printf("WARNING: %" PRIu64
                " client records matched no span (inconsistent trace)\n",
                assembler.OrphanRecords());
  }

  if (spans_mode) {
    const std::map<std::uint32_t, PageAgg> pages = AggregateByPage(spans);
    // --csv - claims stdout for the CSV; the human report goes away.
    if (csv_path != "-") {
      PrintWaterfalls(spans, examples);
      PrintPhaseBreakdown(breakdown);
      PrintPerPageAttribution(pages, top_n);
      PrintPerBandAttribution(pages);
    }
    if (!csv_path.empty() &&
        !WriteSpansCsv(csv_path, breakdown, pages)) {
      return 2;
    }
  } else {
    // --- Per-page latency table (delivery-ranked, legacy report) ---------
    const std::map<std::uint32_t, PageAgg> pages = AggregateByPage(spans);
    struct Legacy {
      std::uint32_t page;
      std::uint64_t requests, hits, deliveries;
      double wait_sum, wait_max;
    };
    std::vector<Legacy> ranked;
    for (const auto& [page, a] : pages) {
      ranked.push_back({page, a.requests, a.hits, a.requests - a.hits,
                        a.response_sum, a.response_max});
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.deliveries != b.deliveries) return a.deliveries > b.deliveries;
      return a.page < b.page;
    });
    std::printf("\nper-page latency (top %zu by deliveries)\n",
                std::min(top_n, ranked.size()));
    std::printf("%8s %10s %8s %12s %10s %10s\n", "page", "requests", "hits",
                "deliveries", "mean wait", "max wait");
    for (std::size_t i = 0; i < ranked.size() && i < top_n; ++i) {
      const Legacy& s = ranked[i];
      std::printf("%8" PRIu32 " %10" PRIu64 " %8" PRIu64 " %12" PRIu64
                  " %10.2f %10.2f\n",
                  s.page, s.requests, s.hits, s.deliveries,
                  s.deliveries == 0
                      ? 0.0
                      : s.wait_sum / static_cast<double>(s.deliveries),
                  s.wait_max);
    }

    // --- Reconstructed spans ---------------------------------------------
    std::uint64_t delivered = 0, with_slot = 0;
    for (const RequestSpan& s : spans) {
      if (!s.Complete() || s.outcome == SpanOutcome::kCacheHit) continue;
      ++delivered;
      if (s.slot_time >= 0.0) ++with_slot;
    }
    std::printf("\nspans reconstructed: %" PRIu64
                " (with transmit slot: %" PRIu64 ")\n",
                delivered, with_slot);
    std::size_t shown = 0;
    for (const RequestSpan& s : spans) {
      if (shown >= examples) break;
      if (!s.Complete() || s.outcome == SpanOutcome::kCacheHit) continue;
      ++shown;
      std::printf("  client %" PRIu32 " page %" PRIu32 ": request t=%.1f",
                  s.client, s.page, s.request_time);
      if (s.submitted) std::printf(" -> submit t=%.1f", s.submit_time);
      if (s.slot_time >= 0.0) {
        std::printf(" -> transmit t=%.1f", s.slot_time);
      }
      std::printf(" -> delivery t=%.1f (wait %.1f)\n", s.delivery_time,
                  s.response);
    }

    // --- Slot-utilization timeline ---------------------------------------
    struct SlotRow {
      double t;
      int kind;  // 0 push, 1 pull, 2 idle.
    };
    std::vector<SlotRow> slots;
    for (const SpanRecord& r : records) {
      if (r.event == SpanEvent::kSlotPush) {
        slots.push_back({r.time, 0});
      } else if (r.event == SpanEvent::kSlotPull) {
        slots.push_back({r.time, 1});
      } else if (r.event == SpanEvent::kSlotIdle) {
        slots.push_back({r.time, 2});
      }
    }
    if (!slots.empty()) {
      double t_lo = slots.front().t, t_hi = slots.front().t;
      for (const SlotRow& s : slots) {
        t_lo = std::min(t_lo, s.t);
        t_hi = std::max(t_hi, s.t);
      }
      const double width = (t_hi - t_lo) / static_cast<double>(bins);
      std::vector<std::array<std::uint64_t, 3>> counts(
          bins, std::array<std::uint64_t, 3>{});
      for (const SlotRow& s : slots) {
        std::size_t b = width <= 0.0 ? 0
                                     : static_cast<std::size_t>(
                                           (s.t - t_lo) / width);
        if (b >= bins) b = bins - 1;
        ++counts[b][static_cast<std::size_t>(s.kind)];
      }
      std::printf("\nslot utilization (%zu bins over t=[%.0f, %.0f])\n",
                  bins, t_lo, t_hi);
      std::printf("%18s %8s %8s %8s\n", "bin", "push", "pull", "idle");
      for (std::size_t b = 0; b < bins; ++b) {
        const double total = static_cast<double>(
            counts[b][0] + counts[b][1] + counts[b][2]);
        if (total == 0.0) continue;
        std::printf("[%7.0f,%7.0f) %7.1f%% %7.1f%% %7.1f%%\n",
                    t_lo + width * static_cast<double>(b),
                    t_lo + width * static_cast<double>(b + 1),
                    100.0 * static_cast<double>(counts[b][0]) / total,
                    100.0 * static_cast<double>(counts[b][1]) / total,
                    100.0 * static_cast<double>(counts[b][2]) / total);
      }
    }
  }

  if (breakdown.pull_served + breakdown.snooped + breakdown.push_served ==
      0) {
    std::fprintf(stderr,
                 "no request->delivery span could be reconstructed\n");
    return 1;
  }
  return 0;
}
