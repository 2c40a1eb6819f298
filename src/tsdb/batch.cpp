#include "tsdb/batch.hpp"

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

void append_unescaped(std::string& out, std::string_view s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out += s[i];
  }
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

Status PointBatch::parse_line(std::string_view raw, std::size_t offset) {
  const std::string_view line = strings::trim(raw);
  if (line.empty()) return Status::parse_error("empty line-protocol line");
  offset += static_cast<std::size_t>(line.data() - raw.data());
  // Arena text of a token: its own bytes when unescaped, else an unescaped
  // copy.
  const auto token_text = [&](const Token& token) {
    if (!token.escaped) {
      return Text{static_cast<std::uint32_t>(
                      offset +
                      static_cast<std::size_t>(token.raw.data() - line.data())),
                  static_cast<std::uint32_t>(token.raw.size())};
    }
    std::string& a = arena();
    const auto at = static_cast<std::uint32_t>(a.size());
    append_unescaped(a, token.raw);
    return Text{at, static_cast<std::uint32_t>(a.size() - at)};
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

  // Field set: "key=value" pairs separated by ',' up to the next unescaped
  // space or the end of the line.
  line_fields_.clear();
  std::string unescaped;
  do {
    const std::size_t element = ++pos;
    if (const PairFault fault = scan_pair(line, pos, key, value);
        fault != PairFault::kNone) {
      return Status::parse_error(
          (fault == PairFault::kMalformed ? "malformed field: "
                                          : "empty field name: ") +
          element_text(line, element));
    }
    std::string_view digits = value.raw;
    if (value.escaped) {
      unescaped.clear();
      append_unescaped(unescaped, value.raw);
      digits = unescaped;
    }
    double v = 0.0;
    if (!parse_value(digits, v)) {
      return Status::parse_error("non-numeric field value: " +
                                 std::string(digits));
    }
    line_fields_.push_back({token_text(key), v});
  } while (pos < line.size() && line[pos] == ',');

  // Timestamp: the rest of the line, raw (escapes are not unescaped here).
  TimeNs time = 0;
  if (pos < line.size()) {
    const std::string_view ts = strings::trim(line.substr(pos + 1));
    if (!ts.empty() && !parse_time(ts, time)) {
      return Status::parse_error("bad timestamp: " + std::string(ts));
    }
  }

  // The line is valid: resolve its series, then commit the row.
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
  commit_row(*series, time);
  return Status::ok();
}

void PointBatch::commit_row(std::uint32_t series, TimeNs time) {
  // Sampler lines repeat one field layout (and rarely a sorted one: _cpu10
  // sorts before _cpu2), so the sorting permutation of the last layout is
  // reused while the names match.
  const std::size_t n = line_fields_.size();
  bool same = n == layout_names_.size();
  for (std::size_t i = 0; same && i < n; ++i) {
    same = text(line_fields_[i].name) == text(layout_names_[i]);
  }
  if (!same) {
    layout_names_.clear();
    layout_order_.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      layout_names_.push_back(line_fields_[i].name);
      layout_order_.push_back(i);
    }
    sort_last_wins(layout_order_, [this](std::uint32_t i) {
      return text(layout_names_[i]);
    });
  }
  Row row;
  row.series = series;
  row.first_field = static_cast<std::uint32_t>(fields_.size());
  row.field_count = static_cast<std::uint32_t>(layout_order_.size());
  row.time = time;
  for (std::uint32_t i : layout_order_) fields_.push_back(line_fields_[i]);
  rows_.push_back(row);
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
    out += std::to_string(row.time);
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
