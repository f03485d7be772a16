// Randomized model-checking ("fuzz") tests: drive components with long
// random operation sequences and compare against trivially correct
// reference models, and feed parsers seeded mutations of valid input.

#include <bit>
#include <charconv>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "config_samples.h"
#include "core/config_io.h"
#include "server/pull_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "transport/wire.h"

namespace bdisk {
namespace {

// ---------------------------------------------------------- EventQueue

TEST(EventQueueFuzzTest, MatchesReferenceMultimapModel) {
  sim::EventQueue queue;
  // Reference: (time, schedule order) -> id. Ids are generation-tagged and
  // no longer monotonic, so FIFO order among ties is tracked with a
  // test-local counter, not the id itself.
  std::map<std::pair<double, std::uint64_t>, sim::EventId> model;
  std::uint64_t schedule_counter = 0;
  sim::Rng rng(2024);

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    if (op < 5) {  // Schedule.
      const double when = rng.NextDouble() * 1000.0;
      const sim::EventId id = queue.Schedule(when, [] {});
      EXPECT_TRUE(queue.IsPending(id));
      model[{when, schedule_counter++}] = id;
    } else if (op < 7 && !model.empty()) {  // Cancel a random known event.
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      queue.Cancel(it->second);
      EXPECT_FALSE(queue.IsPending(it->second));
      model.erase(it);
    } else if (op == 7) {  // Cancel ids that are guaranteed not live.
      queue.Cancel(sim::kInvalidEventId);
      // Generation 0xFFFFFFFF is unreachable in 20k steps, and slot
      // indices past the slab high-water mark are out of range.
      queue.Cancel(0xFFFFFFFF00000000ULL | rng.NextBounded(1000));
      queue.Cancel((1ULL << 32) | (0xFFFFF000ULL + rng.NextBounded(1000)));
    } else if (!queue.Empty()) {  // Pop.
      sim::EventQueue::Fired fired;
      ASSERT_TRUE(queue.Pop(&fired));
      ASSERT_FALSE(model.empty());
      EXPECT_EQ(fired.when, model.begin()->first.first);
      EXPECT_FALSE(queue.IsPending(model.begin()->second));
      model.erase(model.begin());
    }
    ASSERT_EQ(queue.Size(), model.size()) << "step " << step;
    if (!model.empty()) {
      EXPECT_EQ(queue.NextTime(), model.begin()->first.first);
    }
  }
}

TEST(EventQueueFuzzTest, DrainsSortedAfterChurn) {
  sim::EventQueue queue;
  sim::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    queue.Schedule(rng.NextDouble() * 100.0, [] {});
    if (i % 3 == 0 && !queue.Empty()) {
      sim::EventQueue::Fired fired;
      queue.Pop(&fired);
    }
  }
  double prev = -1.0;
  while (!queue.Empty()) {
    sim::EventQueue::Fired fired;
    ASSERT_TRUE(queue.Pop(&fired));
    ASSERT_GE(fired.when, prev);
    prev = fired.when;
  }
}

// ---------------------------------------------------------- PullQueue

TEST(PullQueueFuzzTest, MatchesReferenceDequeModel) {
  const std::uint32_t capacity = 7;
  const std::uint32_t db_size = 20;
  server::PullQueue queue(capacity, db_size);
  std::deque<server::PageId> model;
  std::set<server::PageId> queued;
  sim::Rng rng(31337);

  for (int step = 0; step < 50000; ++step) {
    if (rng.NextBernoulli(0.6)) {  // Submit.
      const auto page =
          static_cast<server::PageId>(rng.NextBounded(db_size));
      const server::SubmitResult result = queue.Submit(page);
      if (queued.count(page)) {
        EXPECT_EQ(result, server::SubmitResult::kCoalesced);
      } else if (model.size() >= capacity) {
        EXPECT_EQ(result, server::SubmitResult::kDroppedFull);
      } else {
        EXPECT_EQ(result, server::SubmitResult::kAccepted);
        model.push_back(page);
        queued.insert(page);
      }
    } else if (!model.empty()) {  // Serve.
      const server::PageId page = queue.PopFront();
      EXPECT_EQ(page, model.front());
      model.pop_front();
      queued.erase(page);
    }
    ASSERT_EQ(queue.Size(), model.size()) << "step " << step;
    ASSERT_EQ(queue.Empty(), model.empty());
  }
}

// ---------------------------------------------------------- Simulator

TEST(SimulatorFuzzTest, NestedSchedulingNeverGoesBackwards) {
  sim::Simulator sim;
  sim::Rng rng(99);
  double last_seen = 0.0;
  int fired = 0;
  std::function<void()> chaos = [&] {
    ASSERT_GE(sim.Now(), last_seen);
    last_seen = sim.Now();
    ++fired;
    if (fired < 5000) {
      // Randomly fan out 0-2 future events (via a one-pointer trampoline:
      // the chaos closure itself exceeds EventFn's inline budget).
      const std::uint64_t fan = rng.NextBounded(3);
      for (std::uint64_t i = 0; i < fan; ++i) {
        sim.ScheduleAfter(rng.NextDouble() * 10.0, [&chaos] { chaos(); });
      }
    }
  };
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAfter(rng.NextDouble(), [&chaos] { chaos(); });
  }
  sim.RunUntil(1e9);
  EXPECT_GT(fired, 10);
}

// ---------------------------------------------------- ParseConfigText

// `text` split at each '\n'; joining the pieces with '\n' gives it back.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(text.substr(start, nl - start));
  }
  lines.push_back(text.substr(start));
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  return text;
}

// One mutation: a byte flipped, inserted or deleted, a line duplicated or
// dropped, or one line's value spliced onto another line's key.
std::string Mutate(std::string text, sim::Rng& rng) {
  static const char kBytes[] = "=#\n\r\t ,.-+0123456789eExp:>\0\x80\xff";
  const std::uint64_t op = rng.NextBounded(6);
  if (op == 0 && !text.empty()) {
    text[rng.NextBounded(text.size())] ^=
        static_cast<char>(1U << rng.NextBounded(8));
  } else if (op == 1) {
    text.insert(rng.NextBounded(text.size() + 1), 1,
                kBytes[rng.NextBounded(sizeof kBytes - 1)]);
  } else if (op == 2 && !text.empty()) {
    text.erase(rng.NextBounded(text.size()), 1);
  } else if (op >= 3) {
    std::vector<std::string> lines = SplitLines(text);
    const std::size_t i = rng.NextBounded(lines.size());
    const std::size_t j = rng.NextBounded(lines.size());
    if (op == 3) {
      const std::string copy = lines[j];
      lines.insert(lines.begin() + i, copy);
    } else if (op == 4) {
      lines.erase(lines.begin() + i);
    } else {
      const std::size_t at = lines[i].find('=');
      const std::size_t from = lines[j].find('=');
      if (at != std::string::npos && from != std::string::npos) {
        lines[i] = lines[i].substr(0, at) + lines[j].substr(from);
      }
    }
    text = JoinLines(lines);
  }
  return text;
}

TEST(ConfigTextFuzzTest, MutatedTextRoundTripsOrFailsAtItsLine) {
  core::SystemConfig every;
  for (const auto& [key, value] : core::kEveryKeyNonDefault) {
    ASSERT_EQ(core::ApplyConfigOption(key, value, &every), "") << key;
  }
  core::SystemConfig faulty;
  faulty.fault.slot_loss = 0.05;
  faulty.fault.request_loss = 0.1;
  faulty.fault.outage_duration = 40.0;
  faulty.fault.outage_period = 300.0;
  faulty.fault.shed_hi = 0.75;
  const std::string seeds[] = {core::ConfigToText(core::SystemConfig{}),
                               core::ConfigToText(every),
                               core::ConfigToText(faulty)};
  sim::Rng rng(20261018);
  int accepted = 0;
  int refused = 0;
  for (int iteration = 0; iteration < 5000; ++iteration) {
    std::string text = seeds[rng.NextBounded(std::size(seeds))];
    for (std::uint64_t n = 1 + rng.NextBounded(4); n > 0; --n) {
      text = Mutate(std::move(text), rng);
    }
    SCOPED_TRACE(::testing::PrintToString(text));
    core::SystemConfig config;
    const std::string error = core::ParseConfigText(text, &config);
    if (error.empty()) {
      // An accepted config prints to a text that reads back and prints
      // the same.
      ++accepted;
      const std::string printed = core::ConfigToText(config);
      core::SystemConfig reread;
      ASSERT_EQ(core::ParseConfigText(printed, &reread), "") << printed;
      ASSERT_EQ(core::ConfigToText(reread), printed);
      continue;
    }
    // A refusal is "line N: <reason>", and leaves the config that lines
    // 1..N-1 alone make.
    ++refused;
    ASSERT_EQ(error.rfind("line ", 0), 0U) << error;
    std::size_t line = 0;
    const char* number = error.data() + 5;
    const auto [end, ec] =
        std::from_chars(number, error.data() + error.size(), line);
    ASSERT_EQ(ec, std::errc()) << error;
    const std::string_view reason(end, error.data() + error.size() - end);
    ASSERT_TRUE(reason.starts_with(": ") && reason.size() > 2) << error;
    std::vector<std::string> lines = SplitLines(text);
    ASSERT_GE(line, 1U) << error;
    ASSERT_LE(line, lines.size()) << error;
    lines.resize(line - 1);
    core::SystemConfig before;
    ASSERT_EQ(core::ParseConfigText(JoinLines(lines), &before), "");
    ASSERT_EQ(core::ConfigEntries(config), core::ConfigEntries(before))
        << error;
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(refused, 500);
}

// ------------------------------------------------------ wire::ParseMessage

namespace wire = transport::wire;

std::string Format(const wire::Message& m) {
  std::string out;
  switch (m.type) {
    case wire::MsgType::kHello:
      wire::FormatHello(m.client_id, &out);
      break;
    case wire::MsgType::kWelcome:
      wire::FormatWelcome(m.db_size, m.cycle_len, m.slot_us, &out);
      break;
    case wire::MsgType::kPull:
      wire::FormatPull(m.client_id, m.page, &out);
      break;
    case wire::MsgType::kPing:
      wire::FormatPing(m.client_id, &out);
      break;
    case wire::MsgType::kBye:
      wire::FormatBye(m.client_id, &out);
      break;
    case wire::MsgType::kSlot:
      wire::FormatSlot(m.seq, m.page, m.kind, m.sim_time, &out);
      break;
    case wire::MsgType::kStats:
      wire::FormatStats(m.stats, &out);
      break;
    case wire::MsgType::kFin:
      wire::FormatFin(m.reason, &out);
      break;
  }
  return out;
}

// Every field, whatever the type: both sides are parsed into a fresh
// Message, so the fields a type does not carry keep their defaults. Slot
// times compare by their bits (the parser refuses NaN).
bool SameMessage(const wire::Message& a, const wire::Message& b) {
  for (const wire::PeerStatsField& f : wire::kPeerStatsFields) {
    if (a.stats.*f.field != b.stats.*f.field) return false;
  }
  const bool same_time = std::bit_cast<std::uint64_t>(a.sim_time) ==
                         std::bit_cast<std::uint64_t>(b.sim_time);
  return a.type == b.type && a.client_id == b.client_id &&
         a.page == b.page && a.seq == b.seq && a.kind == b.kind &&
         same_time && a.db_size == b.db_size &&
         a.cycle_len == b.cycle_len && a.slot_us == b.slot_us &&
         a.reason == b.reason;
}

// Parses `bytes` from a heap buffer of exactly their size, so ASan reports
// any read past the datagram.
bool ParseExact(const std::string& bytes, wire::Message* out,
                std::string* error) {
  const auto buffer = std::make_unique<char[]>(bytes.size());
  std::memcpy(buffer.get(), bytes.data(), bytes.size());
  return wire::ParseMessage(std::string_view(buffer.get(), bytes.size()), out,
                            error);
}

TEST(WireFuzzTest, MutatedMessagesRoundTripOrFailWithAReason) {
  wire::PeerStats stats;
  std::uint64_t v = 1;
  for (const wire::PeerStatsField& f : wire::kPeerStatsFields) {
    stats.*f.field = v;
    v = v * 10 + 7;
  }
  std::vector<std::string> seeds(10);
  wire::FormatHello("peer-1", &seeds[0]);
  wire::FormatWelcome(1000, 1234, 20, &seeds[1]);
  wire::FormatPull("peer-1", 417, &seeds[2]);
  wire::FormatPing("peer-2", &seeds[3]);
  wire::FormatBye("peer-2", &seeds[4]);
  wire::FormatSlot(81234, 17, server::SlotKind::kPush, 81234.5, &seeds[5]);
  wire::FormatSlot(81235, broadcast::kNoPage, server::SlotKind::kIdle, 81235,
                   &seeds[6]);
  wire::FormatStats(stats, &seeds[7]);
  wire::FormatFin("evicted", &seeds[8]);
  wire::FormatSlot(9, 3, server::SlotKind::kPull, 9.0, &seeds[9]);

  sim::Rng rng(20261019);
  int refused = 0;
  std::map<wire::MsgType, int> accepted;
  for (int iteration = 0; iteration < 5000; ++iteration) {
    std::string bytes = seeds[rng.NextBounded(seeds.size())];
    for (std::uint64_t n = 1 + rng.NextBounded(4); n > 0; --n) {
      bytes = Mutate(std::move(bytes), rng);
    }
    SCOPED_TRACE(::testing::PrintToString(bytes));
    wire::Message message;
    std::string error;
    if (!ParseExact(bytes, &message, &error)) {
      ++refused;
      ASSERT_FALSE(error.empty());
      continue;
    }
    ++accepted[message.type];
    // Format∘Parse is the identity: an accepted message formats back to
    // its own bytes, which parse back to it.
    const std::string canonical = Format(message);
    ASSERT_EQ(canonical, bytes);
    wire::Message reparsed;
    ASSERT_TRUE(ParseExact(canonical, &reparsed, &error))
        << canonical << ": " << error;
    ASSERT_TRUE(SameMessage(message, reparsed)) << canonical;
  }
  EXPECT_GT(refused, 500);
  for (const wire::MsgType type :
       {wire::MsgType::kHello, wire::MsgType::kWelcome, wire::MsgType::kPull,
        wire::MsgType::kPing, wire::MsgType::kBye, wire::MsgType::kSlot,
        wire::MsgType::kStats, wire::MsgType::kFin}) {
    EXPECT_GT(accepted[type], 0) << static_cast<int>(type);
  }
}

}  // namespace
}  // namespace bdisk
