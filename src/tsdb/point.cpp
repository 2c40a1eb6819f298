#include "tsdb/point.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace pmove::tsdb {

namespace {

// Line-protocol escaping: commas, spaces, '=' and backslashes in
// identifiers.  Backslashes must be escaped too, or an identifier ending in
// '\' would swallow the following separator and break the round trip.
bool needs_escape(char c) {
  return c == ',' || c == ' ' || c == '=' || c == '\\';
}

std::string escape_ident(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (needs_escape(c)) out += '\\';
    out += c;
  }
  return out;
}

std::size_t escaped_size_impl(std::string_view s) {
  std::size_t n = s.size();
  for (char c : s) {
    if (needs_escape(c)) ++n;
  }
  return n;
}

// One-pass line-protocol scanning.  A backslash pairs with the byte after
// it (the pair never separates); a backslash that ends the line is a literal
// backslash.  Each token is scanned once: without a backslash it is
// assigned straight from the line, otherwise it is unescaped as it is
// copied.
struct Token {
  std::string_view raw;  ///< the token's bytes, escapes included
  bool escaped = false;  ///< raw holds at least one backslash
};

// Scans from `pos` to the first unescaped ',' or ' ' (and '=' when
// `stop_at_equals`), leaving `pos` on that byte or at the end of the line.
Token scan_token(std::string_view line, std::size_t& pos,
                 bool stop_at_equals) {
  const std::size_t start = pos;
  bool escaped = false;
  while (pos < line.size()) {
    const char c = line[pos];
    if (c == '\\') {
      escaped = true;
      pos += pos + 1 < line.size() ? 2 : 1;
      continue;
    }
    if (c == ',' || c == ' ' || (c == '=' && stop_at_equals)) break;
    ++pos;
  }
  return {line.substr(start, pos - start), escaped};
}

void assign_token(std::string& out, const Token& token) {
  if (!token.escaped) {
    out.assign(token.raw);
    return;
  }
  out.clear();
  const std::string_view s = token.raw;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out += s[i];
  }
}

std::string token_string(const Token& token) {
  std::string out;
  assign_token(out, token);
  return out;
}

enum class PairFault { kNone, kMalformed, kEmptyKey };

// Scans one "key=value" tag or field from `pos`.  Malformed means the key
// is not followed by exactly one unescaped '=' before the next ',' or ' '.
PairFault scan_pair(std::string_view line, std::size_t& pos, Token& key,
                    Token& value) {
  key = scan_token(line, pos, /*stop_at_equals=*/true);
  if (pos == line.size() || line[pos] != '=') return PairFault::kMalformed;
  value = scan_token(line, ++pos, /*stop_at_equals=*/true);
  if (pos < line.size() && line[pos] == '=') return PairFault::kMalformed;
  return key.raw.empty() ? PairFault::kEmptyKey : PairFault::kNone;
}

// The raw text of the ','-separated element that starts at `start`: error
// messages quote a malformed tag or field whole.
std::string element_text(std::string_view line, std::size_t start) {
  return std::string(scan_token(line, start, /*stop_at_equals=*/false).raw);
}

bool has_unescaped_space(std::string_view line) {
  for (std::size_t pos = 0; pos < line.size(); ++pos) {
    scan_token(line, pos, /*stop_at_equals=*/false);
    if (pos < line.size() && line[pos] == ' ') return true;
  }
  return false;
}

// Field values: std::from_chars when it takes the whole text; anything it
// declines (a leading '+' or whitespace, hex, overflow, underflow, NaN
// payloads) goes to strtod on a NUL-terminated copy, so the accepted
// language and every value are strtod's.
bool parse_value(std::string_view text, double& value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end && !std::isnan(value)) return true;
  const std::string copy(text);
  char* stop = nullptr;
  value = std::strtod(copy.c_str(), &stop);
  return stop == copy.c_str() + copy.size();
}

// Timestamps: std::from_chars, else strtoll (which also takes '+' and
// saturates on overflow).
bool parse_time(std::string_view text, TimeNs& time) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, time);
  if (ec == std::errc() && ptr == end) return true;
  const std::string copy(text);
  char* stop = nullptr;
  time = std::strtoll(copy.c_str(), &stop, 10);
  return stop == copy.c_str() + copy.size();
}

// Non-integral values render via std::to_chars: the shortest decimal form
// that round-trips through strtod to the same double.  Exactness is what
// to_line()/from_line() need; shortness keeps dumps small; and to_chars is
// an order of magnitude cheaper than the snprintf("%.17g") it replaced,
// which dominated the per-point write cost (wire-byte accounting).
int format_field_value(char (&buf)[48], double v) {
  if (v == std::floor(v) && std::abs(v) < 9.2e18) {
    return std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  }
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 48 bytes always suffice for the shortest double form
  return static_cast<int>(ptr - buf);
}

// Width of the "%lld" rendering without the snprintf call — wire_size() runs
// for every ingested point, and formatting just to count bytes dominated the
// insert path.
std::size_t decimal_width_impl(long long value) {
  std::size_t n = value < 0 ? 1 : 0;
  auto u = value < 0 ? 0ull - static_cast<unsigned long long>(value)
                     : static_cast<unsigned long long>(value);
  do {
    ++n;
    u /= 10;
  } while (u != 0);
  return n;
}

std::size_t field_value_width(double v) {
  if (v == std::floor(v) && std::abs(v) < 9.2e18) {
    return decimal_width_impl(static_cast<long long>(v));
  }
  char buf[48];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return static_cast<std::size_t>(ptr - buf);
}

}  // namespace

namespace lp {

std::string escape(const std::string& s) { return escape_ident(s); }

std::size_t escaped_size(std::string_view s) { return escaped_size_impl(s); }

int format_value(char (&buf)[48], double v) {
  return format_field_value(buf, v);
}

std::size_t value_width(double v) { return field_value_width(v); }

std::size_t decimal_width(long long value) {
  return decimal_width_impl(value);
}

}  // namespace lp

std::string Point::to_line() const {
  std::string out = escape_ident(measurement);
  for (const auto& [k, v] : tags) {
    out += ',';
    out += escape_ident(k);
    out += '=';
    out += escape_ident(v);
  }
  out += ' ';
  bool first = true;
  char buf[48];
  for (const auto& [k, v] : fields) {
    if (!first) out += ',';
    first = false;
    out += escape_ident(k);
    out += '=';
    out.append(buf, static_cast<std::size_t>(format_field_value(buf, v)));
  }
  out += ' ';
  out += std::to_string(time);
  return out;
}

std::size_t Point::wire_size() const {
  // Same arithmetic as to_line(), but without materializing the string —
  // the hot write paths account bytes for every point (Fig 6 resource
  // model), so this must not allocate.
  std::size_t n = escaped_size_impl(measurement);
  for (const auto& [k, v] : tags) {
    n += 2 + escaped_size_impl(k) + escaped_size_impl(v);  // ',' k '=' v
  }
  n += 1;  // space before fields
  bool first = true;
  for (const auto& [k, v] : fields) {
    if (!first) ++n;  // ','
    first = false;
    n += escaped_size_impl(k) + 1 + field_value_width(v);
  }
  n += 1 + decimal_width_impl(time);
  return n;
}

Expected<Point> Point::from_line(std::string_view line) {
  line = strings::trim(line);
  if (line.empty()) return Status::parse_error("empty line-protocol line");

  // A line without an unescaped space has no field set; that verdict takes
  // precedence over any fault in the measurement or tags before it.
  const auto head_error = [line](std::string message) -> Status {
    if (!has_unescaped_space(line)) {
      message = "line protocol needs measurement and fields";
    }
    return Status::parse_error(std::move(message));
  };

  Point point;
  std::size_t pos = 0;
  assign_token(point.measurement,
               scan_token(line, pos, /*stop_at_equals=*/false));
  if (pos == line.size()) {
    return Status::parse_error("line protocol needs measurement and fields");
  }
  if (point.measurement.empty()) return head_error("empty measurement name");

  // Tag set: ",key=value" pairs up to the first unescaped space.
  Token key, raw_value;
  while (line[pos] == ',') {
    const std::size_t element = ++pos;
    if (const PairFault fault = scan_pair(line, pos, key, raw_value);
        fault != PairFault::kNone) {
      return head_error((fault == PairFault::kMalformed ? "malformed tag: "
                                                        : "empty tag key: ") +
                        element_text(line, element));
    }
    if (pos == line.size()) {
      return Status::parse_error("line protocol needs measurement and fields");
    }
    point.tags.insert_or_assign(point.tags.end(), token_string(key),
                                token_string(raw_value));
  }

  // Field set: "key=value" pairs separated by ',' up to the next unescaped
  // space or the end of the line.
  do {
    const std::size_t element = ++pos;
    if (const PairFault fault = scan_pair(line, pos, key, raw_value);
        fault != PairFault::kNone) {
      return Status::parse_error(
          (fault == PairFault::kMalformed ? "malformed field: "
                                          : "empty field name: ") +
          element_text(line, element));
    }
    std::string unescaped;
    std::string_view text = raw_value.raw;
    if (raw_value.escaped) {
      assign_token(unescaped, raw_value);
      text = unescaped;
    }
    double v = 0.0;
    if (!parse_value(text, v)) {
      return Status::parse_error("non-numeric field value: " +
                                 std::string(text));
    }
    point.fields.insert_or_assign(point.fields.end(), token_string(key), v);
  } while (pos < line.size() && line[pos] == ',');

  // Timestamp: the rest of the line, raw (escapes are not unescaped here).
  if (pos < line.size()) {
    const std::string_view ts = strings::trim(line.substr(pos + 1));
    if (!ts.empty() && !parse_time(ts, point.time)) {
      return Status::parse_error("bad timestamp: " + std::string(ts));
    }
  }
  return point;
}

}  // namespace pmove::tsdb
