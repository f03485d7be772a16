#include "transport/wire.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace bdisk::transport::wire {

namespace {

char SlotKindChar(server::SlotKind kind) {
  switch (kind) {
    case server::SlotKind::kPush:
      return 'P';
    case server::SlotKind::kPull:
      return 'Q';
    case server::SlotKind::kIdle:
      return 'I';
  }
  return 'I';
}

void AppendU64(std::uint64_t v, std::string* out) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

/// Writes the bytes of %.17g for `v` into `buf` and returns their end.
/// %.17g round-trips; slot times are integers in practice, so this stays
/// short on the wire.
char* DoubleChars(double v, char (&buf)[32]) {
  return std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                       17)
      .ptr;
}

void AppendDouble(double v, std::string* out) {
  char buf[32];
  out->append(buf, DoubleChars(v, buf));
}

/// Splits on single spaces into at most `max_fields` views. Returns the
/// field count, or -1 when the input has empty fields (double spaces,
/// leading/trailing space) or too many fields.
int SplitFields(std::string_view text, std::string_view* fields,
                int max_fields) {
  int count = 0;
  while (!text.empty()) {
    if (count == max_fields) return -1;
    const std::size_t space = text.find(' ');
    const std::string_view field =
        space == std::string_view::npos ? text : text.substr(0, space);
    if (field.empty()) return -1;
    fields[count++] = field;
    if (space == std::string_view::npos) break;
    text.remove_prefix(space + 1);
    if (text.empty()) return -1;  // Trailing space.
  }
  return count;
}

// The field parsers accept exactly the bytes the formatters write, so
// Format∘Parse is the identity on every accepted message. Each returns null
// on success, else the detail of its refusal, which Fail appends to the
// field's name ("" when the field is not a number at all).

/// A decimal integer as AppendU64 writes it: digits only, no leading zero.
const char* ParseU64(std::string_view field, std::uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *out);
  if (ec != std::errc() || ptr != field.data() + field.size()) return "";
  if (field.size() > 1 && field.front() == '0') return ": leading zero";
  return nullptr;
}

const char* ParseU32(std::string_view field, std::uint32_t* out) {
  std::uint64_t wide = 0;
  if (const char* why = ParseU64(field, &wide)) return why;
  if (wide > 0xFFFFFFFFull) return "";
  *out = static_cast<std::uint32_t>(wide);
  return nullptr;
}

/// A slot time as AppendDouble writes it: a finite double whose %.17g
/// bytes are the field itself. The re-format (one to_chars per line)
/// refuses every other spelling of the value: "81234.", ".9", "0x1p3", a
/// leading blank.
const char* ParseSlotTime(std::string_view field, double* out) {
  // std::from_chars<double> is missing on some libstdc++ versions the CI
  // matrix still builds with; strtod on a bounded copy is fine here.
  char buf[64];
  if (field.size() >= sizeof(buf)) return "";
  std::memcpy(buf, field.data(), field.size());
  buf[field.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  if (end != buf + field.size()) return "";
  if (!std::isfinite(*out)) return ": not finite";
  char written[32];
  if (std::string_view(written, DoubleChars(*out, written) - written) !=
      field) {
    return ": not as the formatter writes it";
  }
  return nullptr;
}

/// A page: "-" for kNoPage, else a decimal page id other than kNoPage.
const char* ParsePage(std::string_view field, PageId* out) {
  if (field == "-") {
    *out = broadcast::kNoPage;
    return nullptr;
  }
  if (const char* why = ParseU32(field, out)) return why;
  if (*out == broadcast::kNoPage) return ": no page is written as -";
  return nullptr;
}

bool Fail(std::string* error, const char* message, const char* why = "") {
  if (error != nullptr) *error = std::string(message) + why;
  return false;
}

}  // namespace

bool ValidClientId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    if (std::isspace(static_cast<unsigned char>(c)) ||
        std::iscntrl(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

void FormatHello(const std::string& client_id, std::string* out) {
  out->assign(kMagic);
  out->append(" HELLO ");
  out->append(client_id);
}

void FormatWelcome(std::uint32_t db_size, std::uint32_t cycle_len,
                   std::uint32_t slot_us, std::string* out) {
  out->assign(kMagic);
  out->append(" WELCOME ");
  AppendU64(db_size, out);
  out->push_back(' ');
  AppendU64(cycle_len, out);
  out->push_back(' ');
  AppendU64(slot_us, out);
}

void FormatPull(const std::string& client_id, PageId page, std::string* out) {
  out->assign(kMagic);
  out->append(" PULL ");
  out->append(client_id);
  out->push_back(' ');
  AppendU64(page, out);
}

void FormatPing(const std::string& client_id, std::string* out) {
  out->assign(kMagic);
  out->append(" PING ");
  out->append(client_id);
}

void FormatBye(const std::string& client_id, std::string* out) {
  out->assign(kMagic);
  out->append(" BYE ");
  out->append(client_id);
}

void FormatSlot(std::uint64_t seq, PageId page, server::SlotKind kind,
                double sim_time, std::string* out) {
  out->assign(kMagic);
  out->append(" SLOT ");
  AppendU64(seq, out);
  out->push_back(' ');
  if (page == broadcast::kNoPage) {
    out->push_back('-');
  } else {
    AppendU64(page, out);
  }
  out->push_back(' ');
  out->push_back(SlotKindChar(kind));
  out->push_back(' ');
  AppendDouble(sim_time, out);
}

void FormatStats(const PeerStats& stats, std::string* out) {
  out->assign(kMagic);
  out->append(" STATS");
  for (const PeerStatsField& f : kPeerStatsFields) {
    out->push_back(' ');
    AppendU64(stats.*f.field, out);
  }
}

void FormatFin(const std::string& reason, std::string* out) {
  out->assign(kMagic);
  out->append(" FIN ");
  out->append(reason.empty() ? "shutdown" : reason);
}

bool ParseMessage(std::string_view datagram, Message* out,
                  std::string* error) {
  std::string_view fields[10];
  const int count = SplitFields(datagram, fields, 10);
  if (count < 2) return Fail(error, "short or ill-delimited datagram");
  if (fields[0] != kMagic) return Fail(error, "bad magic (want bdw1)");
  const std::string_view verb = fields[1];

  const auto want = [&](int n) { return count == n; };
  if (verb == "HELLO" || verb == "PING" || verb == "BYE") {
    if (!want(3)) return Fail(error, "HELLO/PING/BYE want one field");
    if (!ValidClientId(fields[2])) return Fail(error, "bad client id");
    out->type = verb == "HELLO" ? MsgType::kHello
                : verb == "PING" ? MsgType::kPing
                                 : MsgType::kBye;
    out->client_id.assign(fields[2]);
    return true;
  }
  if (verb == "PULL") {
    if (!want(4)) return Fail(error, "PULL wants id and page");
    if (!ValidClientId(fields[2])) return Fail(error, "bad client id");
    if (const char* why = ParseU32(fields[3], &out->page)) {
      return Fail(error, "bad page", why);
    }
    out->type = MsgType::kPull;
    out->client_id.assign(fields[2]);
    return true;
  }
  if (verb == "WELCOME") {
    if (!want(5)) return Fail(error, "WELCOME wants three fields");
    const char* why = ParseU32(fields[2], &out->db_size);
    if (why == nullptr) why = ParseU32(fields[3], &out->cycle_len);
    if (why == nullptr) why = ParseU32(fields[4], &out->slot_us);
    if (why != nullptr) return Fail(error, "bad WELCOME fields", why);
    out->type = MsgType::kWelcome;
    return true;
  }
  if (verb == "SLOT") {
    if (!want(6)) return Fail(error, "SLOT wants four fields");
    if (const char* why = ParseU64(fields[2], &out->seq)) {
      return Fail(error, "bad slot seq", why);
    }
    if (const char* why = ParsePage(fields[3], &out->page)) {
      return Fail(error, "bad page", why);
    }
    if (fields[4].size() != 1) return Fail(error, "bad slot kind");
    switch (fields[4][0]) {
      case 'P':
        out->kind = server::SlotKind::kPush;
        break;
      case 'Q':
        out->kind = server::SlotKind::kPull;
        break;
      case 'I':
        out->kind = server::SlotKind::kIdle;
        break;
      default:
        return Fail(error, "bad slot kind");
    }
    if (const char* why = ParseSlotTime(fields[5], &out->sim_time)) {
      return Fail(error, "bad slot time", why);
    }
    out->type = MsgType::kSlot;
    return true;
  }
  if (verb == "STATS") {
    if (!want(2 + static_cast<int>(std::size(kPeerStatsFields)))) {
      return Fail(error, "STATS wants seven fields");
    }
    PeerStats s;
    const std::string_view* field = fields + 2;
    for (const PeerStatsField& f : kPeerStatsFields) {
      if (const char* why = ParseU64(*field++, &(s.*f.field))) {
        return Fail(error, "bad STATS fields", why);
      }
    }
    out->type = MsgType::kStats;
    out->stats = s;
    return true;
  }
  if (verb == "FIN") {
    if (!want(3)) return Fail(error, "FIN wants a reason");
    out->type = MsgType::kFin;
    out->reason.assign(fields[2]);
    return true;
  }
  return Fail(error, "unknown verb");
}

}  // namespace bdisk::transport::wire
