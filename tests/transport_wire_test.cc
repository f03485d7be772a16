// bdisk-wire-v1 codec: exact datagram text for every verb, format/parse
// round-trips, the malformed-input taxonomy (bad magic, wrong field
// counts, ill-delimited text, unparsable numbers, bad client ids), and a
// differential sweep of the numeric formatters against printf. The
// reconciliation handshake depends on both ends agreeing byte-for-byte,
// so the on-wire text itself is pinned, not just the round-trip.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "transport/wire.h"

namespace bdisk::transport::wire {
namespace {

TEST(WireFormatTest, ClientVerbsPinTheirWireText) {
  std::string out;
  FormatHello("mc1", &out);
  EXPECT_EQ(out, "bdw1 HELLO mc1");
  FormatPull("mc1", 42, &out);
  EXPECT_EQ(out, "bdw1 PULL mc1 42");
  FormatPing("mc1", &out);
  EXPECT_EQ(out, "bdw1 PING mc1");
  FormatBye("mc1", &out);
  EXPECT_EQ(out, "bdw1 BYE mc1");
}

TEST(WireFormatTest, ServerVerbsPinTheirWireText) {
  std::string out;
  FormatWelcome(1000, 1600, 200, &out);
  EXPECT_EQ(out, "bdw1 WELCOME 1000 1600 200");
  FormatSlot(7, 13, server::SlotKind::kPush, 8.0, &out);
  EXPECT_EQ(out, "bdw1 SLOT 7 13 P 8");
  FormatSlot(8, broadcast::kNoPage, server::SlotKind::kIdle, 9.0, &out);
  EXPECT_EQ(out, "bdw1 SLOT 8 - I 9");
  FormatFin("", &out);
  EXPECT_EQ(out, "bdw1 FIN shutdown");
  FormatFin("evicted", &out);
  EXPECT_EQ(out, "bdw1 FIN evicted");
}

TEST(WireFormatTest, StatsCarriesEveryCounterInOrder) {
  PeerStats stats;
  stats.pulls_rx = 1;
  stats.slots_tx_epoch = 2;
  stats.drop_backpressure = 3;
  stats.drop_dead_peer = 4;
  stats.drop_fault = 5;
  stats.pulls_fault_dropped = 6;
  stats.reconnects = 7;
  std::string out;
  FormatStats(stats, &out);
  EXPECT_EQ(out, "bdw1 STATS 1 2 3 4 5 6 7");
}

TEST(WireRoundTripTest, EveryVerbSurvivesFormatThenParse) {
  std::string out;
  Message msg;
  std::string error;

  FormatHello("client-a", &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.type, MsgType::kHello);
  EXPECT_EQ(msg.client_id, "client-a");

  FormatPull("client-a", 99, &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.type, MsgType::kPull);
  EXPECT_EQ(msg.page, 99U);

  FormatPing("client-a", &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.type, MsgType::kPing);

  FormatBye("client-a", &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.type, MsgType::kBye);

  FormatWelcome(500, 800, 1000, &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.type, MsgType::kWelcome);
  EXPECT_EQ(msg.db_size, 500U);
  EXPECT_EQ(msg.cycle_len, 800U);
  EXPECT_EQ(msg.slot_us, 1000U);

  FormatSlot(123456789ULL, 42, server::SlotKind::kPull, 123456.5, &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.type, MsgType::kSlot);
  EXPECT_EQ(msg.seq, 123456789ULL);
  EXPECT_EQ(msg.page, 42U);
  EXPECT_EQ(msg.kind, server::SlotKind::kPull);
  EXPECT_EQ(msg.sim_time, 123456.5);

  FormatSlot(1, broadcast::kNoPage, server::SlotKind::kIdle, 2.0, &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.page, broadcast::kNoPage);
  EXPECT_EQ(msg.kind, server::SlotKind::kIdle);

  PeerStats stats;
  stats.pulls_rx = 11;
  stats.slots_tx_epoch = 22;
  stats.drop_backpressure = 33;
  stats.drop_dead_peer = 44;
  stats.drop_fault = 55;
  stats.pulls_fault_dropped = 66;
  stats.reconnects = 77;
  FormatStats(stats, &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.type, MsgType::kStats);
  EXPECT_EQ(msg.stats.pulls_rx, 11U);
  EXPECT_EQ(msg.stats.slots_tx_epoch, 22U);
  EXPECT_EQ(msg.stats.drop_backpressure, 33U);
  EXPECT_EQ(msg.stats.drop_dead_peer, 44U);
  EXPECT_EQ(msg.stats.drop_fault, 55U);
  EXPECT_EQ(msg.stats.pulls_fault_dropped, 66U);
  EXPECT_EQ(msg.stats.reconnects, 77U);

  FormatFin("drain", &out);
  ASSERT_TRUE(ParseMessage(out, &msg, &error)) << error;
  EXPECT_EQ(msg.type, MsgType::kFin);
  EXPECT_EQ(msg.reason, "drain");
}

TEST(WireParseTest, RejectsBadMagicAndUnknownVerbs) {
  Message msg;
  EXPECT_FALSE(ParseMessage("", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw2 HELLO mc", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("BDW1 HELLO mc", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 SHOUT mc", &msg, nullptr));
}

TEST(WireParseTest, RejectsIllDelimitedText) {
  Message msg;
  // Double space, leading space, trailing space: SplitFields sees an
  // empty field and refuses the whole datagram.
  EXPECT_FALSE(ParseMessage("bdw1  HELLO mc", &msg, nullptr));
  EXPECT_FALSE(ParseMessage(" bdw1 HELLO mc", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 HELLO mc ", &msg, nullptr));
}

TEST(WireParseTest, RejectsWrongFieldCounts) {
  Message msg;
  EXPECT_FALSE(ParseMessage("bdw1 HELLO", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 HELLO mc extra", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 PULL mc", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 WELCOME 1 2", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 SLOT 1 2 P", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 STATS 1 2 3 4 5 6", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 FIN", &msg, nullptr));
}

TEST(WireParseTest, RejectsBadNumbersAndKinds) {
  Message msg;
  std::string error;
  EXPECT_FALSE(ParseMessage("bdw1 PULL mc twelve", &msg, &error));
  EXPECT_EQ(error, "bad page");
  // "-" is only valid in a SLOT page field, never in a PULL.
  EXPECT_FALSE(ParseMessage("bdw1 PULL mc -", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 PULL mc 4294967296", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 WELCOME 1 2 x", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 SLOT x 2 P 3", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 SLOT 1 2 Z 3", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 SLOT 1 2 PQ 3", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 SLOT 1 2 P 3x", &msg, nullptr));
  EXPECT_FALSE(ParseMessage("bdw1 STATS 1 2 3 4 5 6 x", &msg, nullptr));
}

// The parser accepts only the bytes the formatters write, so Format∘Parse
// is the identity: each spelling below parses, under a lax reading, to a
// value the formatters would spell otherwise, and each refusal names its
// reason.
TEST(WireParseTest, RefusesSpellingsTheFormattersNeverWrite) {
  const struct {
    const char* bytes;
    const char* error;
  } kCases[] = {
      {"bdw1 PULL mc 007", "bad page: leading zero"},
      {"bdw1 PULL mc 00", "bad page: leading zero"},
      {"bdw1 WELCOME 1000 01600 200", "bad WELCOME fields: leading zero"},
      {"bdw1 SLOT 07 13 P 8", "bad slot seq: leading zero"},
      {"bdw1 SLOT 7 013 P 8", "bad page: leading zero"},
      {"bdw1 SLOT 7 4294967295 I 8", "bad page: no page is written as -"},
      {"bdw1 STATS 1 2 3 4 5 6 07", "bad STATS fields: leading zero"},
      {"bdw1 SLOT 81234 17 P 81234.",
       "bad slot time: not as the formatter writes it"},
      {"bdw1 SLOT 9 3 Q .9", "bad slot time: not as the formatter writes it"},
      {"bdw1 SLOT 9 3 Q 0x1p3",
       "bad slot time: not as the formatter writes it"},
      {"bdw1 SLOT 9 3 Q \t9", "bad slot time: not as the formatter writes it"},
      {"bdw1 SLOT 9 3 Q 09", "bad slot time: not as the formatter writes it"},
      {"bdw1 SLOT 9 3 Q +9", "bad slot time: not as the formatter writes it"},
      {"bdw1 SLOT 9 3 Q 9.0", "bad slot time: not as the formatter writes it"},
      {"bdw1 SLOT 9 3 Q 0.1", "bad slot time: not as the formatter writes it"},
      {"bdw1 SLOT 9 3 Q nan", "bad slot time: not finite"},
      {"bdw1 SLOT 9 3 Q 1e999", "bad slot time: not finite"},
      {"bdw1 SLOT 9 3 Q -inf", "bad slot time: not finite"},
  };
  for (const auto& c : kCases) {
    Message msg;
    std::string error;
    EXPECT_FALSE(ParseMessage(c.bytes, &msg, &error)) << c.bytes;
    EXPECT_EQ(error, c.error) << c.bytes;
  }
  // The formatters' own spellings of the same values still parse.
  for (const char* bytes :
       {"bdw1 PULL mc 0", "bdw1 PULL mc 4294967295", "bdw1 SLOT 0 - I 0",
        "bdw1 SLOT 9 3 Q 0.10000000000000001", "bdw1 SLOT 9 3 Q -0",
        "bdw1 SLOT 9 3 Q 1.0000000000000001e+300"}) {
    Message msg;
    std::string error;
    ASSERT_TRUE(ParseMessage(bytes, &msg, &error)) << bytes << ": " << error;
    std::string out;
    if (msg.type == MsgType::kPull) {
      FormatPull(msg.client_id, msg.page, &out);
    } else {
      FormatSlot(msg.seq, msg.page, msg.kind, msg.sim_time, &out);
    }
    EXPECT_EQ(out, bytes);
  }
}

TEST(WireParseTest, RejectsBadClientIds) {
  Message msg;
  EXPECT_FALSE(ValidClientId(""));
  EXPECT_FALSE(ValidClientId(std::string(65, 'a')));
  EXPECT_TRUE(ValidClientId(std::string(64, 'a')));
  EXPECT_FALSE(ValidClientId("has space"));
  EXPECT_FALSE(ValidClientId("has\ttab"));
  EXPECT_FALSE(ValidClientId(std::string("nul\0id", 6)));
  EXPECT_TRUE(ValidClientId("load-1.restarted"));
  // A 65-byte id is structurally one field but semantically invalid.
  EXPECT_FALSE(
      ParseMessage("bdw1 HELLO " + std::string(65, 'a'), &msg, nullptr));
}

// The formatters' numbers must be exactly the bytes of printf's "%" PRIu64
// and "%.17g", the grammar's definition of a field. These references
// rebuild each datagram with snprintf.
std::string RefSlot(std::uint64_t seq, PageId page, server::SlotKind kind,
                    double sim_time) {
  char page_text[16] = "-";
  if (page != broadcast::kNoPage) {
    std::snprintf(page_text, sizeof(page_text), "%" PRIu32, page);
  }
  const char kind_char = kind == server::SlotKind::kPush   ? 'P'
                         : kind == server::SlotKind::kPull ? 'Q'
                                                           : 'I';
  char buf[128];
  std::snprintf(buf, sizeof(buf), "bdw1 SLOT %" PRIu64 " %s %c %.17g", seq,
                page_text, kind_char, sim_time);
  return buf;
}

std::string RefWelcome(std::uint32_t db_size, std::uint32_t cycle_len,
                       std::uint32_t slot_us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf),
                "bdw1 WELCOME %" PRIu32 " %" PRIu32 " %" PRIu32, db_size,
                cycle_len, slot_us);
  return buf;
}

std::string RefStats(const PeerStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "bdw1 STATS %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %" PRIu64,
                s.pulls_rx, s.slots_tx_epoch, s.drop_backpressure,
                s.drop_dead_peer, s.drop_fault, s.pulls_fault_dropped,
                s.reconnects);
  return buf;
}

/// Seeded doubles that stress %.17g: exact integers up to and past 2^53,
/// both sides of 1e17 (where %.17g switches to exponent form), fractions
/// across magnitudes, subnormals, the extremes and signed zeros, and
/// random finite bit patterns.
std::vector<double> SweepDoubles(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> v = {0.0,
                           -0.0,
                           DBL_MAX,
                           -DBL_MAX,
                           DBL_MIN,
                           std::numeric_limits<double>::denorm_min(),
                           1e17,
                           std::nextafter(1e17, 0.0),
                           std::nextafter(1e17, DBL_MAX),
                           99999999999999999.0,
                           1e16,
                           9007199254740992.0,
                           9007199254740994.0,
                           9007199254740991.0};
  for (int k = 0; k < 64; ++k) {
    const double p = std::ldexp(1.0, k);
    v.push_back(p);
    v.push_back(p - 1.0);
    v.push_back(p + 1.0);
  }
  for (int i = 0; i < 20000; ++i) {
    // Integers of every width, up to and past 2^53.
    v.push_back(static_cast<double>(rng.Next() >> rng.NextBounded(64)));
    // Either side of 1e17.
    v.push_back(1e17 * (0.5 + rng.NextDouble()));
    // Fractions over many decades.
    v.push_back(rng.NextDouble() *
                std::pow(10.0, static_cast<double>(rng.NextBounded(61)) -
                                   30.0));
    // Subnormals: a zero exponent field with random mantissa bits.
    v.push_back(std::bit_cast<double>(rng.Next() & 0x800F'FFFF'FFFF'FFFFULL));
    // Random bit patterns, skipping NaN and infinity.
    const double bits = std::bit_cast<double>(rng.Next());
    if (std::isfinite(bits)) v.push_back(bits);
  }
  return v;
}

/// Seeded integers: every width, the 2^53 boundary, and the extremes.
std::vector<std::uint64_t> SweepU64(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> v = {0, 1, (1ULL << 53) - 1, 1ULL << 53,
                                  (1ULL << 53) + 1,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 20000; ++i) {
    v.push_back(rng.Next() >> rng.NextBounded(64));
  }
  return v;
}

TEST(WireDifferentialTest, SlotMatchesPrintfAndParsesBackExactly) {
  const std::vector<double> times = SweepDoubles(17);
  const std::vector<std::uint64_t> seqs = SweepU64(18);
  const server::SlotKind kinds[] = {server::SlotKind::kPush,
                                    server::SlotKind::kPull,
                                    server::SlotKind::kIdle};
  std::string out;
  std::string again;
  Message msg;
  std::string error;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const std::uint64_t seq = seqs[i % seqs.size()];
    const PageId page = i % 7 == 0 ? broadcast::kNoPage
                                   : static_cast<PageId>(seq % 0xFFFFFFFFULL);
    const server::SlotKind kind = kinds[i % 3];
    FormatSlot(seq, page, kind, times[i], &out);
    ASSERT_EQ(out, RefSlot(seq, page, kind, times[i])) << i;
    ASSERT_TRUE(ParseMessage(out, &msg, &error)) << out << ": " << error;
    ASSERT_EQ(msg.type, MsgType::kSlot);
    ASSERT_EQ(msg.seq, seq);
    ASSERT_EQ(msg.page, page);
    ASSERT_EQ(msg.kind, kind);
    // Bitwise, so -0.0 and every subnormal survive too.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(msg.sim_time),
              std::bit_cast<std::uint64_t>(times[i]))
        << out;
    FormatSlot(msg.seq, msg.page, msg.kind, msg.sim_time, &again);
    ASSERT_EQ(again, out);
  }
}

TEST(WireDifferentialTest, WelcomeMatchesPrintfAndParsesBackExactly) {
  sim::Rng rng(19);
  std::vector<std::uint32_t> values = {0, 1, 0xFFFFFFFFU};
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<std::uint32_t>(rng.Next() >>
                                                (32 + rng.NextBounded(32))));
  }
  std::string out;
  std::string again;
  Message msg;
  std::string error;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint32_t db = values[i];
    const std::uint32_t cycle = values[(i + 1) % values.size()];
    const std::uint32_t slot_us = values[(i + 2) % values.size()];
    FormatWelcome(db, cycle, slot_us, &out);
    ASSERT_EQ(out, RefWelcome(db, cycle, slot_us));
    ASSERT_TRUE(ParseMessage(out, &msg, &error)) << out << ": " << error;
    ASSERT_EQ(msg.type, MsgType::kWelcome);
    ASSERT_EQ(msg.db_size, db);
    ASSERT_EQ(msg.cycle_len, cycle);
    ASSERT_EQ(msg.slot_us, slot_us);
    FormatWelcome(msg.db_size, msg.cycle_len, msg.slot_us, &again);
    ASSERT_EQ(again, out);
  }
}

TEST(WireDifferentialTest, StatsMatchesPrintfAndParsesBackExactly) {
  const std::vector<std::uint64_t> v = SweepU64(20);
  std::string out;
  std::string again;
  Message msg;
  std::string error;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto at = [&](std::size_t k) { return v[(i + k) % v.size()]; };
    PeerStats stats;
    stats.pulls_rx = at(0);
    stats.slots_tx_epoch = at(1);
    stats.drop_backpressure = at(2);
    stats.drop_dead_peer = at(3);
    stats.drop_fault = at(4);
    stats.pulls_fault_dropped = at(5);
    stats.reconnects = at(6);
    FormatStats(stats, &out);
    ASSERT_EQ(out, RefStats(stats));
    ASSERT_TRUE(ParseMessage(out, &msg, &error)) << out << ": " << error;
    ASSERT_EQ(msg.type, MsgType::kStats);
    ASSERT_EQ(msg.stats.pulls_rx, stats.pulls_rx);
    ASSERT_EQ(msg.stats.slots_tx_epoch, stats.slots_tx_epoch);
    ASSERT_EQ(msg.stats.drop_backpressure, stats.drop_backpressure);
    ASSERT_EQ(msg.stats.drop_dead_peer, stats.drop_dead_peer);
    ASSERT_EQ(msg.stats.drop_fault, stats.drop_fault);
    ASSERT_EQ(msg.stats.pulls_fault_dropped, stats.pulls_fault_dropped);
    ASSERT_EQ(msg.stats.reconnects, stats.reconnects);
    FormatStats(msg.stats, &again);
    ASSERT_EQ(again, out);
  }
}

}  // namespace
}  // namespace bdisk::transport::wire
