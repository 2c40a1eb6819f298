#include "tsdb/batch.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "util/strings.hpp"

namespace pmove::tsdb {

namespace {

constexpr std::size_t kMaxArena = std::numeric_limits<std::uint32_t>::max();
// Arena bytes one text byte can cost: its copy, an unescaped copy (never
// longer), and a re-escaped series key (at most twice the unescaped head).
constexpr std::size_t kArenaPerTextByte = 4;

// One-pass line-protocol scanning.  A backslash pairs with the byte after
// it (the pair never separates); a backslash that ends the line is a literal
// backslash.  A token without a backslash is its own unescaped text.
struct Token {
  std::string_view raw;  ///< the token's bytes, escapes included
  bool escaped = false;  ///< raw holds at least one backslash
};

// Byte classes: one table lookup per byte tells whether it ends or escapes
// a token.
enum : std::uint8_t {
  kComma = 1,
  kSpace = 2,
  kEquals = 4,
  kBackslash = 8,
};
constexpr std::uint8_t kSeparator = kComma | kSpace;
constexpr std::uint8_t kSpecial = kComma | kSpace | kEquals | kBackslash;

constexpr std::array<std::uint8_t, 256> kByteClass = [] {
  std::array<std::uint8_t, 256> table{};
  table[','] = kComma;
  table[' '] = kSpace;
  table['='] = kEquals;
  table['\\'] = kBackslash;
  return table;
}();

std::uint8_t byte_class(char c) {
  return kByteClass[static_cast<unsigned char>(c)];
}

// The first position at or after `pos` whose byte is in one of the classes
// `stop`, or the end of the line.
std::size_t find_class(std::string_view line, std::size_t pos,
                       std::uint8_t stop) {
  while (pos < line.size() && (byte_class(line[pos]) & stop) == 0) ++pos;
  return pos;
}

// Scans from `pos` to the first unescaped ',' or ' ' (and '=' when
// `stop_at_equals`), leaving `pos` on that byte or at the end of the line.
Token scan_token(std::string_view line, std::size_t& pos,
                 bool stop_at_equals) {
  const std::uint8_t stop =
      kSeparator | kBackslash | (stop_at_equals ? kEquals : 0);
  const std::size_t start = pos;
  bool escaped = false;
  for (;;) {
    pos = find_class(line, pos, stop);
    if (pos == line.size() || line[pos] != '\\') break;
    escaped = true;
    pos += pos + 1 < line.size() ? 2 : 1;
  }
  return {line.substr(start, pos - start), escaped};
}

void append_unescaped(std::string& out, std::string_view s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out += s[i];
  }
}

enum class PairFault { kNone, kMalformed, kEmptyKey };

// Scans one "key=value" tag from `pos`.  Malformed means the key is not
// followed by exactly one unescaped '=' before the next ',' or ' '.
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

// An optional '-' and a run of decimal digits from `pos`, converted as it
// is scanned; `pos` ends on the first other byte.  Returns the digit count
// (0 when there are none).  Past 19 digits `magnitude` has wrapped.
std::size_t scan_decimal(std::string_view text, std::size_t& pos,
                         bool& negative, std::uint64_t& magnitude) {
  negative = pos < text.size() && text[pos] == '-';
  pos += negative ? 1 : 0;
  const std::size_t start = pos;
  magnitude = 0;
  for (; pos < text.size(); ++pos) {
    const unsigned digit = static_cast<unsigned char>(text[pos]) - '0';
    if (digit > 9) break;
    magnitude = magnitude * 10 + digit;
  }
  return pos - start;
}

// The fused digit path for field values: an optional '-' and at most 15
// digits, ended by ',', ' ' or the end of the line.  Below 2^53 the integer
// converts to double exactly, so the value is the one strtod gives.  On
// success `pos` sits on the ending byte; on any other spelling it is left
// as it was, and a fractional value's integer digits are scanned again.
bool scan_small_integer(std::string_view line, std::size_t& pos,
                        double& value) {
  std::size_t end = pos;
  bool negative = false;
  std::uint64_t magnitude = 0;
  const std::size_t digits = scan_decimal(line, end, negative, magnitude);
  if (digits == 0 || digits > 15) return false;
  if (end < line.size() && (byte_class(line[end]) & kSeparator) == 0) {
    return false;
  }
  const double v = static_cast<double>(magnitude);
  value = negative ? -v : v;
  pos = end;
  return true;
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

// Timestamps: a plain one (an optional '-' and at most 19 digits that fit
// in 64 bits) converts as it is scanned; anything else goes to
// std::from_chars, else strtoll (which also takes '+' and saturates on
// overflow).
bool parse_time(std::string_view text, TimeNs& time) {
  std::size_t pos = 0;
  bool negative = false;
  std::uint64_t magnitude = 0;
  const std::size_t digits = scan_decimal(text, pos, negative, magnitude);
  if (pos == text.size() && digits != 0 && digits <= 19 &&
      magnitude <= static_cast<std::uint64_t>(
                       std::numeric_limits<TimeNs>::max())) {
    const auto t = static_cast<TimeNs>(magnitude);
    time = negative ? -t : t;
    return true;
  }
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, time);
  if (ec == std::errc() && ptr == end) return true;
  const std::string copy(text);
  char* stop = nullptr;
  time = std::strtoll(copy.c_str(), &stop, 10);
  return stop == copy.c_str() + copy.size();
}

// Stable insertion sort by `name(x)`, then drops all but the last of each
// run of equal names: what insert_or_assign into a std::map leaves.  The
// inputs are a line's handful of tags or fields.
template <class T, class Name>
void sort_last_wins(std::vector<T>& v, Name name) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    T item = v[i];
    std::size_t j = i;
    while (j > 0 && name(item) < name(v[j - 1])) {
      v[j] = v[j - 1];
      --j;
    }
    v[j] = item;
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i + 1 < v.size() && name(v[i]) == name(v[i + 1])) continue;
    v[out++] = v[i];
  }
  v.resize(out);
}

// Appends the canonical series key of (measurement, tags).
void append_key(std::string& out, std::string_view measurement,
                const std::map<std::string, std::string>& tags) {
  lp::append_escaped(out, measurement);
  for (const auto& [k, v] : tags) {
    out += ',';
    lp::append_escaped(out, k);
    out += '=';
    lp::append_escaped(out, v);
  }
}

}  // namespace

std::uint64_t PointBatch::hash_key(std::string_view key) {
  // Eight bytes per step, then the splitmix64 finalizer.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
  const char* p = key.data();
  std::size_t n = key.size();
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    p += 8;
    n -= 8;
  }
  if (n != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * 0x94d049bb133111ebULL;
    h ^= h >> 29;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

std::string PointBatch::key_of(
    std::string_view measurement,
    const std::map<std::string, std::string>& tags) {
  std::string key;
  append_key(key, measurement, tags);
  return key;
}

std::string& PointBatch::arena() {
  if (arena_ == nullptr) {
    arena_ = std::make_shared<std::string>();
  } else if (arena_.use_count() > 1) {
    arena_ = std::make_shared<std::string>(*arena_);
  }
  return *arena_;
}

bool PointBatch::fits(std::size_t more) const {
  const std::size_t used = arena_ == nullptr ? 0 : arena_->size();
  return more <= kMaxArena && used <= kMaxArena - more;
}

PointBatch::Text PointBatch::put(std::string_view s) {
  std::string& a = arena();
  const Text t{static_cast<std::uint32_t>(a.size()),
               static_cast<std::uint32_t>(s.size())};
  a.append(s);
  return t;
}

void PointBatch::grow_slots() {
  std::size_t size = slots_.empty() ? 16 : slots_.size() * 2;
  while (size < 2 * (series_.size() + 1)) size *= 2;
  slots_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::uint32_t s = 0; s < series_.size(); ++s) {
    std::size_t i = series_[s].hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = s + 1;
  }
}

std::optional<std::uint32_t> PointBatch::find_series(std::string_view key,
                                                     std::uint64_t hash) const {
  if (slots_.empty()) return std::nullopt;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask; slots_[i] != 0; i = (i + 1) & mask) {
    const Series& s = series_[slots_[i] - 1];
    if (s.hash == hash && text(s.key) == key) return slots_[i] - 1;
  }
  return std::nullopt;
}

std::uint32_t PointBatch::add_series(Text key, std::uint64_t hash,
                                     Text measurement,
                                     std::span<const Tag> tags) {
  if (2 * (series_.size() + 1) > slots_.size()) grow_slots();
  Series s;
  s.key = key;
  s.hash = hash;
  s.measurement = measurement;
  s.first_tag = static_cast<std::uint32_t>(tags_.size());
  s.tag_count = static_cast<std::uint32_t>(tags.size());
  tags_.insert(tags_.end(), tags.begin(), tags.end());
  series_.push_back(s);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = static_cast<std::uint32_t>(series_.size());
  return static_cast<std::uint32_t>(series_.size() - 1);
}

Expected<PointBatch> PointBatch::parse(std::string_view text) {
  PointBatch batch;
  if (Status s = batch.append_lines(text); !s.is_ok()) return s;
  return batch;
}

Expected<PointBatch> PointBatch::from_points(
    const std::vector<Point>& points) {
  PointBatch batch;
  batch.rows_.reserve(points.size());
  for (const Point& point : points) {
    if (Status s = batch.append_point(point); !s.is_ok()) return s;
  }
  return batch;
}

Status PointBatch::append_lines(std::string_view text,
                                std::size_t* bad_line) {
  if (!fits(kArenaPerTextByte * text.size())) {
    return Status::out_of_range("line-protocol batch over 4 GiB");
  }
  // One copy of the text: tokens without escapes point into it.
  const std::size_t base = arena().size();
  arena().append(text);
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    ++line_no;
    if (!strings::trim(line).empty()) {
      const std::size_t mark = arena_->size();
      if (Status s = parse_line(line, base + start); !s.is_ok()) {
        arena_->resize(mark);
        if (bad_line != nullptr) *bad_line = line_no;
        return s;
      }
    }
    start = end + 1;
  }
  return Status::ok();
}

Status PointBatch::append_line(std::string_view line) {
  if (!fits(kArenaPerTextByte * line.size())) {
    return Status::out_of_range("line-protocol batch over 4 GiB");
  }
  const std::size_t base = arena().size();
  arena().append(line);
  Status s = parse_line(line, base);
  if (!s.is_ok()) arena_->resize(base);
  return s;
}

PointBatch::Text PointBatch::arena_text(std::string_view raw, bool escaped,
                                        std::string_view line,
                                        std::size_t offset) {
  if (!escaped) {
    return Text{static_cast<std::uint32_t>(
                    offset + static_cast<std::size_t>(raw.data() - line.data())),
                static_cast<std::uint32_t>(raw.size())};
  }
  std::string& a = arena();
  const auto at = static_cast<std::uint32_t>(a.size());
  append_unescaped(a, raw);
  return Text{at, static_cast<std::uint32_t>(a.size() - at)};
}

Status PointBatch::parse_line(std::string_view raw, std::size_t offset) {
  const std::string_view line = strings::trim(raw);
  if (line.empty()) return Status::parse_error("empty line-protocol line");
  offset += static_cast<std::size_t>(line.data() - raw.data());
  const auto token_text = [&](const Token& token) {
    return arena_text(token.raw, token.escaped, line, offset);
  };

  // A line without an unescaped space has no field set; that verdict takes
  // precedence over any fault in the measurement or tags before it.
  const auto head_error = [line](std::string message) -> Status {
    if (!has_unescaped_space(line)) {
      message = "line protocol needs measurement and fields";
    }
    return Status::parse_error(std::move(message));
  };

  std::size_t pos = 0;
  const Token name = scan_token(line, pos, /*stop_at_equals=*/false);
  if (pos == line.size()) {
    return Status::parse_error("line protocol needs measurement and fields");
  }
  // A non-empty token unescapes to a non-empty name: a backslash always
  // keeps the byte it escapes.
  if (name.raw.empty()) return head_error("empty measurement name");
  const Text measurement = token_text(name);
  // Still canonical while every head token is unescaped, the measurement
  // has no '=' (to_line() escapes it there) and tag keys strictly ascend.
  bool canonical = !name.escaped &&
                   name.raw.find('=') == std::string_view::npos;

  // Tag set: ",key=value" pairs up to the first unescaped space.
  line_tags_.clear();
  Token key, value;
  std::string_view previous_key;
  while (line[pos] == ',') {
    const std::size_t element = ++pos;
    if (const PairFault fault = scan_pair(line, pos, key, value);
        fault != PairFault::kNone) {
      return head_error((fault == PairFault::kMalformed ? "malformed tag: "
                                                        : "empty tag key: ") +
                        element_text(line, element));
    }
    if (pos == line.size()) {
      return Status::parse_error("line protocol needs measurement and fields");
    }
    if (key.escaped || value.escaped ||
        (!line_tags_.empty() && !(previous_key < key.raw))) {
      canonical = false;
    }
    previous_key = key.raw;
    line_tags_.push_back({token_text(key), token_text(value)});
  }
  const std::size_t head_end = pos;

  // Field set: the layout fast path writes the row's fields in place; the
  // full grammar stages them until the line is known to be valid.
  const std::size_t first_field = fields_.size();
  const bool matched = match_layout(line, pos);
  if (!matched) {
    if (Status s = parse_fields(line, pos, offset); !s.is_ok()) return s;
  }

  // Timestamp: the rest of the line, raw (escapes are not unescaped here).
  TimeNs time = 0;
  if (pos < line.size()) {
    const std::string_view ts = strings::trim(line.substr(pos + 1));
    if (!ts.empty() && !parse_time(ts, time)) {
      fields_.resize(first_field);
      return Status::parse_error("bad timestamp: " + std::string(ts));
    }
  }

  // The line is valid: place its fields, resolve its series, then commit
  // the row.
  if (!matched) place_fields();
  std::string_view series_key = line.substr(0, head_end);
  if (!canonical) {
    const auto by_key = [this](const Tag& t) { return text(t.key); };
    sort_last_wins(line_tags_, by_key);
    key_scratch_.clear();
    lp::append_escaped(key_scratch_, text(measurement));
    for (const Tag& tag : line_tags_) {
      key_scratch_ += ',';
      lp::append_escaped(key_scratch_, text(tag.key));
      key_scratch_ += '=';
      lp::append_escaped(key_scratch_, text(tag.value));
    }
    series_key = key_scratch_;
  }
  const std::uint64_t hash = hash_key(series_key);
  std::optional<std::uint32_t> series = find_series(series_key, hash);
  if (!series.has_value()) {
    const Text stored =
        canonical ? Text{static_cast<std::uint32_t>(offset),
                         static_cast<std::uint32_t>(head_end)}
                  : put(key_scratch_);
    series = add_series(stored, hash, measurement, line_tags_);
  }
  Row row;
  row.series = *series;
  row.first_field = static_cast<std::uint32_t>(first_field);
  row.field_count = static_cast<std::uint32_t>(fields_.size() - first_field);
  row.time = time;
  rows_.push_back(row);
  return Status::ok();
}

bool PointBatch::match_layout(std::string_view line, std::size_t& pos) {
  if (!layout_plain_) return false;
  const std::size_t first = fields_.size();
  fields_.insert(fields_.end(), layout_row_.begin(), layout_row_.end());
  Field* const row = fields_.data() + first;
  const char* const names = arena_->data();
  const std::size_t count = layout_names_.size();
  std::size_t p = pos;
  for (std::size_t i = 0; i < count; ++i) {
    // p sits on the ' ' or ',' before the field.  A plain name matches
    // where its bytes and then '=' follow: scanning would stop at that '='
    // with the same unescaped key.
    const Text name = layout_names_[i];
    ++p;
    if (line.size() - p <= name.size ||
        std::memcmp(line.data() + p, names + name.offset, name.size) != 0 ||
        line[p + name.size] != '=') {
      break;
    }
    p += name.size + 1;
    double v = 0.0;
    if (!scan_small_integer(line, p, v)) {
      const std::size_t start = p;
      p = find_class(line, p, kSpecial);
      // '=' (malformed) and '\' (an escaped value) are the full grammar's.
      if ((p < line.size() && (byte_class(line[p]) & kSeparator) == 0) ||
          !parse_value(line.substr(start, p - start), v)) {
        break;
      }
    }
    row[layout_slots_[i]].value = v;
    // A ',' must follow every field but the last, and not the last.
    const bool more = p < line.size() && line[p] == ',';
    if (more != (i + 1 < count)) break;
    if (!more) {
      pos = p;
      return true;
    }
  }
  fields_.resize(first);
  return false;
}

Status PointBatch::parse_fields(std::string_view line, std::size_t& pos,
                                std::size_t offset) {
  // "key=value" pairs separated by ',' up to the next unescaped space or
  // the end of the line, staged in input order.
  line_fields_.clear();
  std::string unescaped;
  do {
    const std::size_t element = ++pos;
    const Token key = scan_token(line, pos, /*stop_at_equals=*/true);
    PairFault fault = PairFault::kNone;
    double v = 0.0;
    if (pos == line.size() || line[pos] != '=') {
      fault = PairFault::kMalformed;
    } else if (!scan_small_integer(line, ++pos, v)) {
      const Token value = scan_token(line, pos, /*stop_at_equals=*/true);
      if (pos < line.size() && line[pos] == '=') {
        fault = PairFault::kMalformed;
      } else if (!key.raw.empty()) {
        std::string_view digits = value.raw;
        if (value.escaped) {
          unescaped.clear();
          append_unescaped(unescaped, value.raw);
          digits = unescaped;
        }
        if (!parse_value(digits, v)) {
          return Status::parse_error("non-numeric field value: " +
                                     std::string(digits));
        }
      }
    }
    if (fault == PairFault::kNone && key.raw.empty()) {
      fault = PairFault::kEmptyKey;
    }
    if (fault != PairFault::kNone) {
      return Status::parse_error(
          (fault == PairFault::kMalformed ? "malformed field: "
                                          : "empty field name: ") +
          element_text(line, element));
    }
    line_fields_.push_back(
        {arena_text(key.raw, key.escaped, line, offset), v});
  } while (pos < line.size() && line[pos] == ',');
  return Status::ok();
}

void PointBatch::place_fields() {
  // Sorted by name, last of a duplicated name winning: the layout's slots,
  // rebuilt when this line spells another layout.
  const std::size_t count = line_fields_.size();
  bool same = count == layout_names_.size();
  for (std::size_t i = 0; same && i < count; ++i) {
    same = text(line_fields_[i].name) == text(layout_names_[i]);
  }
  const std::size_t first = fields_.size();
  if (!same) {
    fields_.insert(fields_.end(), line_fields_.begin(), line_fields_.end());
    set_layout(first);
  }
  fields_.resize(first + layout_row_.size());
  for (std::size_t i = 0; i < count; ++i) {
    fields_[first + layout_slots_[i]] = line_fields_[i];
  }
}

void PointBatch::set_layout(std::size_t first) {
  const std::size_t count = fields_.size() - first;
  const auto name = [&](std::uint32_t i) {
    return text(fields_[first + i].name);
  };
  // The sorted row holds each distinct name once; every input position
  // writes to its name's slot.
  std::vector<std::uint32_t> order(count);
  for (std::uint32_t i = 0; i < count; ++i) order[i] = i;
  sort_last_wins(order, name);
  layout_row_.clear();
  for (const std::uint32_t i : order) {
    layout_row_.push_back({fields_[first + i].name, 0.0});
  }
  layout_names_.resize(count);
  layout_slots_.resize(count);
  layout_plain_ = true;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto slot = std::lower_bound(
        layout_row_.begin(), layout_row_.end(), name(i),
        [this](const Field& f, std::string_view n) { return text(f.name) < n; });
    layout_names_[i] = fields_[first + i].name;
    layout_slots_[i] = static_cast<std::uint32_t>(slot - layout_row_.begin());
    for (const char c : name(i)) {
      if ((byte_class(c) & kSpecial) != 0) layout_plain_ = false;
    }
  }
}

Status PointBatch::append_point(const Point& point) {
  if (point.measurement.empty()) {
    return Status::invalid_argument("point missing measurement");
  }
  if (point.fields.empty()) {
    return Status::invalid_argument("point has no fields");
  }
  std::size_t bytes = point.measurement.size();
  for (const auto& [k, v] : point.tags) bytes += k.size() + v.size() + 2;
  for (const auto& [k, v] : point.fields) bytes += k.size();
  if (!fits(3 * bytes)) {
    return Status::out_of_range("point batch over 4 GiB");
  }

  key_scratch_.clear();
  append_key(key_scratch_, point.measurement, point.tags);
  const std::uint64_t hash = hash_key(key_scratch_);
  std::optional<std::uint32_t> series = find_series(key_scratch_, hash);
  if (!series.has_value()) {
    const Text key = put(key_scratch_);
    const Text measurement = put(point.measurement);
    line_tags_.clear();
    for (const auto& [k, v] : point.tags) {
      line_tags_.push_back({put(k), put(v)});
    }
    series = add_series(key, hash, measurement, line_tags_);
  }

  // Field names repeat from row to row: reuse the previous row's copy.
  Row row;
  row.series = *series;
  row.first_field = static_cast<std::uint32_t>(fields_.size());
  row.field_count = static_cast<std::uint32_t>(point.fields.size());
  row.time = point.time;
  const Row* previous = rows_.empty() ? nullptr : &rows_.back();
  std::uint32_t f = 0;
  for (const auto& [name, value] : point.fields) {
    Text stored;
    if (previous != nullptr && f < previous->field_count &&
        text(fields_[previous->first_field + f].name) == name) {
      stored = fields_[previous->first_field + f].name;
    } else {
      stored = put(name);
    }
    fields_.push_back({stored, value});
    ++f;
  }
  rows_.push_back(row);
  return Status::ok();
}

void PointBatch::clear() {
  if (arena_ != nullptr) {
    if (arena_.use_count() > 1) {
      arena_.reset();
    } else {
      arena_->clear();
    }
  }
  rows_.clear();
  series_.clear();
  tags_.clear();
  fields_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
  // The layout's names lived in the arena.
  layout_names_.clear();
  layout_slots_.clear();
  layout_row_.clear();
  layout_plain_ = false;
}

Point PointBatch::point(std::size_t r) const {
  const Row& row = rows_[r];
  const Series& s = series_[row.series];
  Point p;
  p.measurement = std::string(text(s.measurement));
  for (const Tag& tag : tags(s)) {
    p.tags.emplace_hint(p.tags.end(), text(tag.key), text(tag.value));
  }
  for (const Field& field : fields(row)) {
    p.fields.emplace_hint(p.fields.end(), text(field.name), field.value);
  }
  p.time = row.time;
  return p;
}

std::vector<Point> PointBatch::to_points() const {
  std::vector<Point> out;
  out.reserve(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) out.push_back(point(r));
  return out;
}

std::string PointBatch::to_text() const {
  std::string out;
  char buf[48];
  for (const Row& row : rows_) {
    out += text(series_[row.series].key);
    char sep = ' ';
    for (const Field& field : fields(row)) {
      out += sep;
      sep = ',';
      lp::append_escaped(out, text(field.name));
      out += '=';
      const int n = lp::format_value(buf, field.value);
      out.append(buf, static_cast<std::size_t>(n));
    }
    out += ' ';
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), row.time);
    (void)ec;  // 20 bytes hold any 64-bit integer
    out.append(buf, end);
    out += '\n';
  }
  return out;
}

std::vector<PointBatch> PointBatch::split(std::size_t parts) const {
  std::vector<PointBatch> out(parts);
  for (PointBatch& part : out) part.arena_ = arena_;
  constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> local(series_.size(), kUnmapped);
  for (const Row& row : rows_) {
    const Series& s = series_[row.series];
    PointBatch& part = out[s.hash % parts];
    std::uint32_t& index = local[row.series];
    if (index == kUnmapped) {
      index = static_cast<std::uint32_t>(part.series_.size());
      Series copy = s;
      copy.first_tag = static_cast<std::uint32_t>(part.tags_.size());
      const auto span = tags(s);
      part.tags_.insert(part.tags_.end(), span.begin(), span.end());
      part.series_.push_back(copy);
    }
    Row copy = row;
    copy.series = index;
    copy.first_field = static_cast<std::uint32_t>(part.fields_.size());
    const auto span = fields(row);
    part.fields_.insert(part.fields_.end(), span.begin(), span.end());
    part.rows_.push_back(copy);
  }
  return out;
}

}  // namespace pmove::tsdb
