#include "tsdb/point.hpp"

#include <charconv>
#include <cmath>

#include "tsdb/batch.hpp"

namespace pmove::tsdb {

namespace {

// Line-protocol escaping: commas, spaces, '=' and backslashes in
// identifiers.  Backslashes must be escaped too, or an identifier ending in
// '\' would swallow the following separator and break the round trip.
bool needs_escape(char c) {
  return c == ',' || c == ' ' || c == '=' || c == '\\';
}

void append_escaped_ident(std::string& out, std::string_view s) {
  for (char c : s) {
    if (needs_escape(c)) out += '\\';
    out += c;
  }
}

std::string escape_ident(const std::string& s) {
  std::string out;
  append_escaped_ident(out, s);
  return out;
}

std::size_t escaped_size_impl(std::string_view s) {
  std::size_t n = s.size();
  for (char c : s) {
    if (needs_escape(c)) ++n;
  }
  return n;
}

// Values render via std::to_chars.  An integral value below 9.2e18 in
// magnitude renders as that integer, byte for byte what snprintf("%lld")
// printed (-0.0 included, as "0"), without parsing a format; any other
// value as the shortest decimal form that round-trips through strtod to the
// same double.  Exactness is what to_line()/from_line() need; shortness
// keeps dumps small; and to_chars is an order of magnitude cheaper than the
// snprintf("%.17g") it replaced, which dominated the per-point write cost
// (wire-byte accounting).
int format_field_value(char (&buf)[48], double v) {
  // 48 bytes always suffice for a 64-bit integer or the shortest double
  // form.
  const auto [ptr, ec] =
      v == std::floor(v) && std::abs(v) < 9.2e18
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return static_cast<int>(ptr - buf);
}

// Width of the "%lld" rendering without the snprintf call, for wire_size().
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

void append_escaped(std::string& out, std::string_view s) {
  append_escaped_ident(out, s);
}

int format_value(char (&buf)[48], double v) {
  return format_field_value(buf, v);
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
  // Same arithmetic as to_line(), but without materializing the string.
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
  // One grammar: a one-row batch, kept per thread so that a call reuses its
  // buffers and allocates only the Point it returns.  A line longer than
  // kKeepLine frees them afterwards, so what a thread holds between calls
  // is bounded by what a line of that size needs.
  constexpr std::size_t kKeepLine = 64 * 1024;
  thread_local PointBatch batch;
  batch.clear();
  Status s = batch.append_line(line);
  Expected<Point> point = s.is_ok() ? Expected<Point>(batch.point(0))
                                    : Expected<Point>(std::move(s));
  if (line.size() > kKeepLine) batch = PointBatch();
  return point;
}

}  // namespace pmove::tsdb
