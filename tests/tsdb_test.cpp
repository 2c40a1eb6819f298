#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "query/plan.hpp"
#include "support/reference_line_protocol.hpp"
#include "tsdb/batch.hpp"
#include "tsdb/db.hpp"
#include "tsdb/point.hpp"

namespace pmove::tsdb {
namespace {

Point make_point(std::string measurement, TimeNs t, double value,
                 std::string tag = "") {
  Point p;
  p.measurement = std::move(measurement);
  p.time = t;
  p.fields["value"] = value;
  if (!tag.empty()) p.tags["tag"] = std::move(tag);
  return p;
}

// ----------------------------------------------------------- line protocol

TEST(LineProtocolTest, RoundTrip) {
  Point p;
  p.measurement = "kernel_percpu_cpu_idle";
  p.tags["host"] = "skx";
  p.tags["tag"] = "278e26c2";
  p.fields["_cpu0"] = 1.5;
  p.fields["_cpu1"] = 2.0;
  p.time = 1690000000000000000;
  auto restored = Point::from_line(p.to_line());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->measurement, p.measurement);
  EXPECT_EQ(restored->tags, p.tags);
  EXPECT_EQ(restored->fields, p.fields);
  EXPECT_EQ(restored->time, p.time);
}

TEST(LineProtocolTest, EscapesSpecialCharacters) {
  Point p;
  p.measurement = "weird m,easure=ment";
  p.tags["k ey"] = "v,alue";
  p.fields["f=ield"] = 1.0;
  p.time = 42;
  auto restored = Point::from_line(p.to_line());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->measurement, p.measurement);
  EXPECT_EQ(restored->tags.at("k ey"), "v,alue");
  EXPECT_EQ(restored->fields.count("f=ield"), 1u);
}

TEST(LineProtocolTest, IntegerFieldsCompact) {
  Point p = make_point("m", 7, 12345.0);
  EXPECT_EQ(p.to_line(), "m value=12345 7");
}

TEST(LineProtocolTest, ParseWithoutTimestamp) {
  auto p = Point::from_line("m,host=a value=3.5");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->time, 0);
  EXPECT_DOUBLE_EQ(p->fields.at("value"), 3.5);
}

TEST(LineProtocolTest, Rejections) {
  for (const char* bad :
       {"", "   ", "m", "m novalue", "m k=v x", "m k=abc 5", ",t=1 k=1 5"}) {
    EXPECT_FALSE(Point::from_line(bad).has_value()) << bad;
  }
}

TEST(LineProtocolTest, EscapedCommasAndSpacesInTags) {
  auto p = Point::from_line(
      "cpu\\ usage,host=node\\,1,zone=us\\ east value=1 9");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->measurement, "cpu usage");
  EXPECT_EQ(p->tags.at("host"), "node,1");
  EXPECT_EQ(p->tags.at("zone"), "us east");
  // And the inverse direction: to_line must escape what from_line unescapes.
  auto round = Point::from_line(p->to_line());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->tags, p->tags);
  EXPECT_EQ(round->measurement, p->measurement);
}

TEST(LineProtocolTest, BackslashInIdentifierRoundTrips) {
  Point p;
  p.measurement = "dir\\path";
  p.tags["k\\ey"] = "v\\al,ue";
  p.fields["f"] = 2.0;
  p.time = 5;
  auto restored = Point::from_line(p.to_line());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->measurement, p.measurement);
  EXPECT_EQ(restored->tags, p.tags);
}

TEST(LineProtocolTest, EmptyFieldSetRejected) {
  // A line with tags but no field set must not parse to a field-less point.
  for (const char* bad : {"m,host=a 5", "m,host=a", "m,host=a  5"}) {
    EXPECT_FALSE(Point::from_line(bad).has_value()) << bad;
  }
}

TEST(LineProtocolTest, EmptyTagKeyOrFieldNameRejected) {
  EXPECT_FALSE(Point::from_line("m,=v value=1 5").has_value());
  EXPECT_FALSE(Point::from_line("m,host=a =1 5").has_value());
}

TEST(LineProtocolTest, WireSizeMatchesLineSize) {
  Point p;
  p.measurement = "weird m,easure=ment";
  p.tags["k ey"] = "v,alue";
  p.tags["host"] = "skx";
  p.fields["f=ield"] = 1.5;
  p.fields["_cpu11"] = 123456.0;
  p.time = 1690000000000000000;
  EXPECT_EQ(p.wire_size(), p.to_line().size());
  Point minimal = make_point("m", 0, 0.25);
  minimal.time = 0;
  EXPECT_EQ(minimal.wire_size(), minimal.to_line().size());
}

TEST(LineProtocolTest, OutOfOrderTimestampsParseIndependently) {
  // Decreasing timestamps across lines are a transport reality (shard
  // workers and retries reorder batches); each line must stand alone.
  TimeSeriesDb db;
  ASSERT_TRUE(db.write_line("m value=3 300").is_ok());
  ASSERT_TRUE(db.write_line("m value=1 100").is_ok());
  ASSERT_TRUE(db.write_line("m value=2 200").is_ok());
  auto result = query::run(db, "SELECT \"value\" FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_DOUBLE_EQ(result->rows[0][1], 1.0);
  EXPECT_DOUBLE_EQ(result->rows[2][1], 3.0);
}

// ------------------------------------------------------------------ writes

// ------------------------------------------------- parser parity fuzzing

// Sampler-shaped lines (the perfevent layout: two tags, sixteen per-CPU
// fields) mutated with the bytes line protocol treats specially.  The
// production parser must agree with the reference oracle on every one.
class LineFuzzer {
 public:
  explicit LineFuzzer(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    std::string line;
    switch (pick(8)) {
      case 0:  // short lines over the special-byte alphabet
        for (std::size_t n = pick(24); n > 0; --n) {
          line += kAlphabet[pick(sizeof(kAlphabet) - 1)];
        }
        return line;
      case 1:  // well-formed, number spellings varied
        return sampler_line();
      default:
        line = sampler_line();
        for (std::size_t n = 1 + pick(4); n > 0; --n) mutate(line);
        return line;
    }
  }

 private:
  static constexpr char kAlphabet[] = "m ,=\\\\+-.0123456789eExXpPinfaN\t\r\n\v";

  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  std::string number() {
    static const char* const kSpellings[] = {
        "1.50", "+1", "-0", "0x1p3", "0X1.8P1", "inf", "-inf", "Infinity",
        "nan", "-nan", "NaN(123)", "1e400", "-1e400", "1e-400", "4.9e-324",
        "2.2250738585072011e-308", ".5", "5.", "1e", "", " 1", "1_0",
        "00012", "1.7976931348623157e308", "123456789012345678901234567890"};
    if (pick(32) == 0) return kSpellings[pick(std::size(kSpellings))];
    char buf[48];
    const double v = static_cast<double>(rng_() % 2000001) / 1000.0 - 1000.0;
    const int n = lp::format_value(buf, pick(2) == 0 ? std::floor(v) : v);
    return std::string(buf, static_cast<std::size_t>(n));
  }

  std::string timestamp() {
    static const char* const kSpellings[] = {
        "9223372036854775807", "9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "+5", "-5", "0", "", "1.5", "0x10", "12 13"};
    if (pick(4) == 0) return kSpellings[pick(std::size(kSpellings))];
    return std::to_string(1'690'000'000'000'000'000LL +
                          static_cast<long long>(rng_() % 1'000'000'000));
  }

  std::string sampler_line() {
    std::string line = "perfevent_hwcounters_instructions_value";
    line += ",host=h" + std::to_string(pick(2000));
    line += ",tag=" + std::to_string(rng_() % 100000);
    for (int f = 0; f < 16; ++f) {
      line += f == 0 ? ' ' : ',';
      line += "_cpu" + std::to_string(f) + "=" + number();
    }
    if (pick(8) != 0) line += " " + timestamp();
    if (pick(8) == 0) line += "\r";
    return line;
  }

  void mutate(std::string& line) {
    static const std::string_view kHostile[] = {
        "\\", "\\ ", "\\,", "\\=", "\\\\", ",", "=", " ", "  ", "\t", "\r",
        "\r\n", "\v", std::string_view("\0", 1), "\xff", ",_cpu0=7",
        ",_cpu3=-2", ",tag=dup", ",=1", ",k=", "=v", ",", "+1", "0x", "inf",
        "nan", "1e400", "4.9e-324", "-9223372036854775809", "1.50", "\\\\ "};
    const std::size_t at = line.empty() ? 0 : pick(line.size() + 1);
    switch (pick(5)) {
      case 0:
      case 1:
        line.insert(at, kHostile[pick(std::size(kHostile))]);
        break;
      case 2:
        if (at < line.size()) line[at] = kAlphabet[pick(sizeof(kAlphabet) - 1)];
        break;
      case 3:
        if (at < line.size()) line.erase(at, 1 + pick(6));
        break;
      default:
        line.resize(at);  // truncation, e.g. a torn tail ending in '\'
        break;
    }
  }

  std::mt19937_64 rng_;
};

void expect_same_point(const Point& got, const Point& want,
                       const std::string& line) {
  EXPECT_EQ(got.measurement, want.measurement) << "line: " << line;
  EXPECT_EQ(got.tags, want.tags) << "line: " << line;
  EXPECT_EQ(got.time, want.time) << "line: " << line;
  ASSERT_EQ(got.fields.size(), want.fields.size()) << "line: " << line;
  for (auto g = got.fields.begin(), w = want.fields.begin();
       w != want.fields.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first) << "line: " << line;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g->second),
              std::bit_cast<std::uint64_t>(w->second))
        << "line: " << line << " field " << w->first;
  }
}

void expect_same_parse(const std::string& line, std::size_t& accepted) {
  const Expected<Point> want = testing::reference_from_line(line);
  const Expected<Point> got = Point::from_line(line);
  ASSERT_EQ(got.has_value(), want.has_value()) << "line: " << line;
  if (!want.has_value()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << "line: " << line;
    EXPECT_EQ(got.status().message(), want.status().message())
        << "line: " << line;
    return;
  }
  ++accepted;
  expect_same_point(got.value(), want.value(), line);
}

bool blank(std::string_view line) {
  return std::all_of(line.begin(), line.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

// What PointBatch::parse must return for `text`: the reference parser over
// every non-blank '\n'-separated line, stopping at the first rejection.
struct ReferenceText {
  Status status = Status::ok();
  std::size_t bad_line = 0;
  std::vector<Point> points;
};

ReferenceText reference_text(std::string_view text) {
  ReferenceText out;
  std::size_t start = 0;
  for (std::size_t line_no = 1; start <= text.size(); ++line_no) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (blank(line)) continue;
    Expected<Point> p = testing::reference_from_line(line);
    if (!p.has_value()) {
      out.status = p.status();
      out.bad_line = line_no;
      return out;
    }
    out.points.push_back(std::move(p.value()));
  }
  return out;
}

// One multi-line text through PointBatch::parse and append_lines against
// the reference: verdict, code, message, bad line number, and bit-identical
// rows whose series keys are the heads to_line() renders.
void expect_same_text(const std::string& text, std::size_t& accepted) {
  const ReferenceText want = reference_text(text);
  const Expected<PointBatch> got = PointBatch::parse(text);
  ASSERT_EQ(got.has_value(), want.status.is_ok()) << "text: " << text;
  PointBatch partial;
  std::size_t bad_line = 0;
  const Status appended = partial.append_lines(text, &bad_line);
  EXPECT_EQ(appended.is_ok(), want.status.is_ok()) << "text: " << text;
  if (!got.has_value()) {
    EXPECT_EQ(got.status().code(), want.status.code()) << "text: " << text;
    EXPECT_EQ(got.status().message(), want.status.message())
        << "text: " << text;
    EXPECT_EQ(appended.message(), want.status.message()) << "text: " << text;
    EXPECT_EQ(bad_line, want.bad_line) << "text: " << text;
    // The rows of the lines before the bad one stay.
    ASSERT_EQ(partial.size(), want.points.size()) << "text: " << text;
    return;
  }
  EXPECT_EQ(partial.size(), want.points.size()) << "text: " << text;
  const PointBatch& batch = got.value();
  ASSERT_EQ(batch.size(), want.points.size()) << "text: " << text;
  const std::vector<Point> rows = batch.to_points();
  std::map<std::string, std::size_t> distinct;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_same_point(rows[i], want.points[i], text);
    const PointBatch::Series& series =
        batch.series()[batch.rows()[i].series];
    const std::string key =
        PointBatch::key_of(want.points[i].measurement, want.points[i].tags);
    EXPECT_EQ(batch.text(series.key), key) << "text: " << text;
    EXPECT_EQ(series.hash, PointBatch::hash_key(key)) << "text: " << text;
    distinct.emplace(key, batch.rows()[i].series);
  }
  // One batch series per distinct (measurement, tag set).
  EXPECT_EQ(batch.series().size(), distinct.size()) << "text: " << text;
  accepted += rows.size();
}

TEST(LineProtocolFuzzTest, MatchesReferenceParserBitForBit) {
  LineFuzzer fuzzer(0x9e3779b97f4a7c15ULL);
  constexpr std::size_t kLines = 120'000;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kLines; ++i) {
    const std::string line = fuzzer.next();
    expect_same_parse(line, accepted);
    if (::testing::Test::HasFailure()) return;
  }
  // Both verdicts must be well represented, or the fuzzer tests nothing.
  EXPECT_GT(accepted, kLines / 5);
  EXPECT_LT(accepted, kLines * 4 / 5);
}

TEST(LineProtocolFuzzTest, HostileSpellingsMatchReference) {
  std::size_t accepted = 0;
  for (const char* line : {
           "m f=+1 5", "m f=\t1", "m f=0x1p3", "m f=0X1.8P1 -5", "m f=inf",
           "m f=-Infinity", "m f=nan", "m f=-nan", "m f=NaN(123)",
           "m f=nan(0x7)", "m f=1e400", "m f=-1e400", "m f=1e-400",
           "m f=4.9e-324", "m f=2.4703282292062328e-324", "m f=1 +5",
           "m f=1 9223372036854775808", "m f=1 -9223372036854775809",
           "m f=1 \\5", "m f=1\\.5", "m f=1\\", "m\\ x f=1", "m,k=v\\ f=1",
           "m f= 5", "m,k= f=1", "m f=1,f=2,f=3 7", "m,t=a,t=b f=1",
           "m f=1,", "m f=1, 5", "m,,k=v f=1", ",k=v", ",k=v f=1", "m,k",
           "m,k f=1", "m,=v=w f=1", "m f=1=2", "m =1", "m  f=1", "m f=1 5 6",
           "m f=1 5\r", "\r\nm f=1\r\n", "m\v f=1", "m f=1\v5", "m=x f=1"}) {
    expect_same_parse(line, accepted);
  }
  EXPECT_GT(accepted, 0u);
}

TEST(LineProtocolFuzzTest, BatchParseMatchesReferenceOnMultiLineTexts) {
  // The same 120 000 fuzzed lines, joined into texts of one to four lines
  // with LF or CRLF endings, blank and whitespace-only lines between them,
  // and sometimes no final newline.
  LineFuzzer fuzzer(0x9e3779b97f4a7c15ULL);
  std::mt19937_64 rng(0x5eed);
  static const char* const kBlank[] = {"", "  ", "\r", "\t \r"};
  constexpr std::size_t kLines = 120'000;
  std::size_t accepted = 0;
  std::size_t texts = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kLines; ++texts) {
    std::string text;
    for (std::size_t n = 1 + rng() % 4; n > 0 && i < kLines; --n, ++i) {
      if (rng() % 4 == 0) {
        text += kBlank[rng() % std::size(kBlank)];
        text += '\n';
      }
      text += fuzzer.next();
      text += rng() % 3 == 0 ? "\r\n" : "\n";
    }
    if (rng() % 2 == 0) text.pop_back();
    const std::size_t before = accepted;
    expect_same_text(text, accepted);
    if (::testing::Test::HasFailure()) return;
    if (accepted == before) ++rejected;
  }
  // A text is accepted only if all its lines are: both verdicts must still
  // be well represented, or the test checks nothing.
  EXPECT_GT(accepted, kLines / 40);
  EXPECT_GT(rejected, texts / 10);
}

TEST(LineProtocolFuzzTest, BatchParseMatchesReferenceOnHostileSpellings) {
  std::size_t accepted = 0;
  for (const char* line : {
           "m f=+1 5", "m f=\t1", "m f=0x1p3", "m f=0X1.8P1 -5", "m f=inf",
           "m f=-Infinity", "m f=nan", "m f=-nan", "m f=NaN(123)",
           "m f=nan(0x7)", "m f=1e400", "m f=-1e400", "m f=1e-400",
           "m f=4.9e-324", "m f=2.4703282292062328e-324", "m f=1 +5",
           "m f=1 9223372036854775808", "m f=1 -9223372036854775809",
           "m f=1 \\5", "m f=1\\.5", "m f=1\\", "m\\ x f=1", "m,k=v\\ f=1",
           "m f= 5", "m,k= f=1", "m f=1,f=2,f=3 7", "m,t=a,t=b f=1",
           "m f=1,", "m f=1, 5", "m,,k=v f=1", ",k=v", ",k=v f=1", "m,k",
           "m,k f=1", "m,=v=w f=1", "m f=1=2", "m =1", "m  f=1", "m f=1 5 6",
           "m f=1 5\r", "\r\nm f=1\r\n", "m\v f=1", "m f=1\v5", "m=x f=1",
           "m,b=2,a=1 f=1", "m,a=\\1,b=2 f=1", "m\\=x,a=1 f=1"}) {
    // Alone, and between good lines that name the same series.
    expect_same_text(line, accepted);
    expect_same_text(std::string("m,a=1,b=2 f=0 1\r\n\n") + line +
                         "\n \nm,b=2,a=1 g=3 2",
                     accepted);
  }
  EXPECT_GT(accepted, 0u);
}

// Texts whose lines share one field layout, with one line mutated at a
// random place: the parser's layout fast path must hand every way a line
// can leave the layout (or only look like it) to the full grammar.
class LayoutTextFuzzer {
 public:
  explicit LayoutTextFuzzer(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    Layout layout = make_layout();
    const std::size_t lines = 64 + pick(449);
    const std::size_t mutated = pick(lines);
    std::string text;
    for (std::size_t i = 0; i < lines; ++i) {
      Line line = make_line(layout);
      if (i == mutated && mutate(line)) {
        // A layout change: this line and the rest spell another one.
        layout = make_layout();
        line = make_line(layout);
      }
      text += render(line);
    }
    if (pick(2) == 0) text.pop_back();
    return text;
  }

 private:
  struct Layout {
    std::string measurement;
    std::vector<std::string> names;  ///< raw spellings, in line order
  };
  struct Line {
    std::string head;
    std::vector<std::pair<std::string, std::string>> fields;  ///< raw
    std::string time;
    std::string ending = "\n";
    /// The field whose '=' is spelled `equals_with` instead.
    std::size_t odd_equals = std::numeric_limits<std::size_t>::max();
    std::string equals_with;
  };

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  std::string digits(std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
      out += static_cast<char>('0' + pick(10));
    }
    return out;
  }

  std::string name() {
    static constexpr char kChars[] = "_abcpu0123456789";
    std::string out;
    for (std::size_t n = 1 + pick(9); n > 0; --n) {
      out += kChars[pick(sizeof(kChars) - 1)];
    }
    return out;
  }

  Layout make_layout() {
    Layout layout;
    layout.measurement = pick(2) == 0 ? "perfevent" : "m" + name();
    const std::size_t count = 1 + pick(20);
    const bool cpus = pick(2) == 0;
    for (std::size_t f = 0; f < count; ++f) {
      layout.names.push_back(cpus ? "_cpu" + std::to_string(f) : name());
    }
    switch (pick(8)) {
      case 0:  // a duplicated name: the last one wins
        layout.names.push_back(layout.names[pick(count)]);
        break;
      case 1:  // an escaped name: the layout is not plain
        layout.names[pick(count)] += "\\ x";
        break;
      default:
        break;
    }
    return layout;
  }

  // Integers of every width the fused digit path takes and a few it does
  // not, plus decimals.
  std::string value() {
    switch (pick(8)) {
      case 0:
        return "-" + digits(1 + pick(15));
      case 1:
        return digits(1 + pick(4)) + "." + digits(pick(4));
      default:
        return digits(1 + pick(15));
    }
  }

  Line make_line(const Layout& layout) {
    Line line;
    line.head = layout.measurement + ",host=h" + std::to_string(pick(64));
    if (pick(4) == 0) line.head += ",rack=r" + std::to_string(pick(4));
    for (const std::string& n : layout.names) {
      line.fields.emplace_back(n, value());
    }
    line.time = pick(16) == 0 ? "" : "1" + digits(18);
    return line;
  }

  static std::string render(const Line& line) {
    std::string out = line.head;
    char sep = ' ';
    for (std::size_t f = 0; f < line.fields.size(); ++f) {
      out += sep;
      sep = ',';
      out += line.fields[f].first;
      out += f == line.odd_equals ? line.equals_with : "=";
      out += line.fields[f].second;
    }
    if (!line.time.empty()) out += " " + line.time;
    return out + line.ending;
  }

  // Returns true when the mutation is a layout change for the rest of the
  // text.
  bool mutate(Line& line) {
    auto& fields = line.fields;
    auto& field = fields[pick(fields.size())];
    switch (pick(17)) {
      case 0:  // a name off by one byte
        field.first[pick(field.first.size())] = "_a0z\x7f"[pick(5)];
        break;
      case 1:  // a prefix of the name
        if (field.first.size() > 1) field.first.pop_back();
        break;
      case 2:  // an extension of the name
        field.first += "_0z"[pick(3)];
        break;
      case 3: {  // an escaped name that unescapes to the layout's name
        const std::size_t at = pick(field.first.size());
        field.first.insert(at, "\\");
        break;
      }
      case 4:  // a field dropped
        if (fields.size() > 1) fields.erase(fields.begin() + pick(fields.size()));
        break;
      case 5:  // a field added
        fields.emplace(fields.begin() + pick(fields.size() + 1), name(),
                       value());
        break;
      case 6:  // two fields reordered
        std::swap(field, fields[pick(fields.size())]);
        break;
      case 7: {  // a field duplicated
        const auto copy = field;
        fields.insert(fields.begin() + pick(fields.size() + 1), copy);
        break;
      }
      case 8:  // '=' or '\' in a value
        field.second.insert(pick(field.second.size() + 1),
                            pick(2) == 0 ? "=" : "\\");
        break;
      case 9: {  // a number the fused digit path declines
        static const char* const kSpellings[] = {
            ".", "e", "-", "+", "e3", "E-2", "+1", "-", ".5", "5.", "1e400",
            "0x1p3", "inf", "nan", "-0", ""};
        if (pick(2) == 0) {
          field.second = digits(16 + pick(8));
        } else {
          field.second.insert(pick(field.second.size() + 1),
                              kSpellings[pick(std::size(kSpellings))]);
        }
        break;
      }
      case 10:  // a CRLF line ending
        line.ending = "\r\n";
        break;
      case 11: {  // an odd timestamp
        static const char* const kTimes[] = {
            "9223372036854775807", "9223372036854775808", "-5", "+5",
            "0", "1.5", "12 13", "-9223372036854775808", "99999999999999999999"};
        line.time = kTimes[pick(std::size(kTimes))];
        break;
      }
      case 12:  // a value with no digits before a separator
        field.second.clear();
        break;
      case 13:  // a stray separator
        field.second += pick(2) == 0 ? "," : " ";
        break;
      case 14: {  // a name's '=' dropped, doubled or replaced
        static const char* const kEquals[] = {"", "==", "1", "_", "\\="};
        line.odd_equals = pick(fields.size());
        line.equals_with = kEquals[pick(std::size(kEquals))];
        break;
      }
      default:
        return true;  // a layout change mid-batch
    }
    return false;
  }

  std::mt19937_64 rng_;
};

TEST(LineProtocolFuzzTest, LayoutPathMatchesReferenceOnMutatedLayouts) {
  LayoutTextFuzzer fuzzer(0x1a7017ULL);
  constexpr std::size_t kTexts = 600;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kTexts; ++i) {
    const std::string text = fuzzer.next();
    const std::size_t before = accepted;
    expect_same_text(text, accepted);
    if (::testing::Test::HasFailure()) return;
    if (accepted == before) ++rejected;
  }
  // Both verdicts must be well represented, or the test checks nothing.
  EXPECT_GT(rejected, kTexts / 10);
  EXPECT_LT(rejected, kTexts * 9 / 10);
}

TEST(LineProtocolFuzzTest, FusedDigitPathMatchesStrtodAtEveryWidth) {
  // Integers of 1 to 24 digits, signed and not, alone and as the last
  // field before a timestamp, around the 8-byte chunks the scanner reads.
  std::mt19937_64 rng(0xd161);
  std::size_t accepted = 0;
  for (std::size_t width = 1; width <= 24; ++width) {
    for (int round = 0; round < 200; ++round) {
      std::string digits;
      for (std::size_t i = 0; i < width; ++i) {
        digits += static_cast<char>('0' + rng() % 10);
      }
      const std::string sign = rng() % 3 == 0 ? "-" : "";
      const std::string line = "m,h=a a=1,f=" + sign + digits +
                               (rng() % 2 == 0 ? "" : " " + digits);
      std::string text;
      for (int n = 0; n < 3; ++n) text += line + "\n";
      expect_same_text(text, accepted);
      expect_same_parse(line, accepted);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(LineProtocolTest, FromLineCallsInSequenceMatchReference) {
  // Point::from_line reuses one batch per thread: a bad line must leave
  // nothing behind for the next call.
  LineFuzzer fuzzer(0x5e9);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 4000; ++i) {
    expect_same_parse(fuzzer.next(), accepted);
    if (i % 7 == 0) {
      expect_same_parse("m,host=a\\ b f=1,g=2 5", accepted);
    }
    if (::testing::Test::HasFailure()) return;
  }
  for (const char* line : {"m f=1=2 5", "m,host=a _cpu0=1,_cpu1=2 7",
                           "m _cpu0=x 5", "m,host=a _cpu0=3,_cpu1=4 8"}) {
    expect_same_parse(line, accepted);
  }
  // A line over 64 KiB frees the reused batch afterwards; calls after it
  // start from a fresh one.
  std::string wide = "m,host=a ";
  for (int f = 0; f < 8000; ++f) {
    wide += (f == 0 ? "" : ",") + std::string("_cpu") + std::to_string(f) +
            "=" + std::to_string(f);
  }
  ASSERT_GT(wide.size(), 64u * 1024);
  for (const std::string& line :
       {wide + " 9", std::string("m,host=a _cpu0=5,_cpu1=6 10"), wide + " x",
        std::string("m,host=a _cpu0=7,_cpu1=8 11")}) {
    expect_same_parse(line, accepted);
  }
  EXPECT_GT(accepted, 0u);
}

TEST(PointBatchTest, BadLineLeavesLaterAppendsExact) {
  // A rejected line (escaped names, then a bad timestamp) must leave the
  // batch as it was, layout included, for the next append.
  PointBatch batch;
  ASSERT_TRUE(batch.append_lines("m a=1,b=2 1\n").is_ok());
  std::size_t bad_line = 0;
  EXPECT_FALSE(
      batch.append_lines("m a=3,b=4 2\nm a\\ x=1,c\\ y=2 1.5\n", &bad_line)
          .is_ok());
  EXPECT_EQ(bad_line, 2u);
  const std::string rest =
      "m a\\ x=3,c\\ y=4 3\nm a=5,b=6 4\nm a\\ x=7,c\\ y=8 5\nm a=9,b=10 6";
  ASSERT_TRUE(batch.append_lines(rest).is_ok());
  std::vector<Point> want;
  for (const char* line : {"m a=1,b=2 1", "m a=3,b=4 2"}) {
    want.push_back(testing::reference_from_line(line).value());
  }
  for (Point& p : reference_text(rest).points) want.push_back(std::move(p));
  const std::vector<Point> got = batch.to_points();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_point(got[i], want[i], rest);
  }
}

TEST(PointBatchTest, ClearKeepsSplitPartsIntact) {
  auto parsed = PointBatch::parse(
      "m,host=a f=1,g=2 1\nm,host=b f=3,g=4 2\nm,host=c f=5,g=6 3\n");
  ASSERT_TRUE(parsed.has_value());
  PointBatch batch = std::move(parsed.value());
  const std::vector<PointBatch> parts = batch.split(2);
  std::vector<Point> before;
  for (const PointBatch& part : parts) {
    for (const Point& p : part.to_points()) before.push_back(p);
  }
  // The parts share the arena: clearing must not empty it under them.
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.series().empty());
  ASSERT_TRUE(batch.append_lines("n,host=z f=9 4\n").is_ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.point(0).to_line(), "n,host=z f=9 4");
  std::vector<Point> after;
  for (const PointBatch& part : parts) {
    for (const Point& p : part.to_points()) after.push_back(p);
  }
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].to_line(), before[i].to_line());
  }
  // A batch that owns its arena alone reuses it.
  batch.clear();
  ASSERT_TRUE(batch.append_lines("m,host=a f=1 1\nm,host=a f=2 2").is_ok());
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.series().size(), 1u);
  EXPECT_EQ(batch.to_text(), "m,host=a f=1 1\nm,host=a f=2 2\n");
}

TEST(LineProtocolTest, IntegralValuesRenderAsSnprintfDid) {
  // format_value renders integral values with std::to_chars; the bytes
  // must be what snprintf("%lld") gave, or dumps and WAL text change.
  const auto check = [](double v) {
    char got[48];
    const int n = lp::format_value(got, v);
    if (v == std::floor(v) && std::abs(v) < 9.2e18) {
      char want[48];
      const int m = std::snprintf(want, sizeof(want), "%lld",
                                  static_cast<long long>(v));
      EXPECT_EQ(std::string(got, static_cast<std::size_t>(n)),
                std::string(want, static_cast<std::size_t>(m)))
          << "value " << v;
    }
    // Every rendering reads back to the same bits.
    const double back = std::strtod(std::string(got, n).c_str(), nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v))
        << "value " << v;
  };
  const double edge = 9.2e18;
  for (double v : {0.0, -0.0, 1.0, -1.0, 0x1p53, -0x1p53, 0x1p53 + 2,
                   -(0x1p53 + 2), std::nextafter(edge, 0.0),
                   -std::nextafter(edge, 0.0), edge, -edge,
                   std::nextafter(edge, 1e19), 0x1p63, -0x1p63,
                   1e15, 999999999999999.0}) {
    check(v);
  }
  std::mt19937_64 rng(0xf0f0);
  for (int i = 0; i < 200'000; ++i) {
    const int bits = static_cast<int>(rng() % 63);
    const auto magnitude = static_cast<double>(rng() >> (63 - bits));
    check(rng() % 2 == 0 ? magnitude : -magnitude);
  }
}

TEST(DbTest, WriteAndCount) {
  TimeSeriesDb db;
  EXPECT_TRUE(db.write(make_point("m1", 1, 1.0)).is_ok());
  EXPECT_TRUE(db.write(make_point("m1", 2, 2.0)).is_ok());
  EXPECT_TRUE(db.write(make_point("m2", 1, 3.0)).is_ok());
  EXPECT_EQ(db.point_count(), 3u);
  EXPECT_EQ(db.point_count("m1"), 2u);
  EXPECT_EQ(db.point_count("nope"), 0u);
  EXPECT_EQ(db.measurements(), (std::vector<std::string>{"m1", "m2"}));
}

TEST(DbTest, WriteValidation) {
  TimeSeriesDb db;
  Point no_measurement;
  no_measurement.fields["v"] = 1;
  EXPECT_FALSE(db.write(no_measurement).is_ok());
  Point no_fields;
  no_fields.measurement = "m";
  EXPECT_FALSE(db.write(no_fields).is_ok());
}

TEST(DbTest, WriteLineParsesAndStores) {
  TimeSeriesDb db;
  EXPECT_TRUE(db.write_line("m,tag=abc value=5 100").is_ok());
  EXPECT_FALSE(db.write_line("garbage").is_ok());
  EXPECT_EQ(db.point_count("m"), 1u);
}

TEST(DbTest, OutOfOrderInsertKeepsTimeOrder) {
  TimeSeriesDb db;
  ASSERT_TRUE(db.write(make_point("m", 30, 3.0)).is_ok());
  ASSERT_TRUE(db.write(make_point("m", 10, 1.0)).is_ok());
  ASSERT_TRUE(db.write(make_point("m", 20, 2.0)).is_ok());
  auto result = query::run(db, "SELECT \"value\" FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_LT(result->rows[0][0], result->rows[1][0]);
  EXPECT_LT(result->rows[1][0], result->rows[2][0]);
}

TEST(DbTest, WriteBatchBulkInsert) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(make_point("m", 1000 - i * 10, static_cast<double>(i)));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  EXPECT_EQ(db.point_count("m"), 100u);
  // Out-of-order batch contents still come back time-sorted.
  auto result = query::run(db, "SELECT \"value\" FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  for (std::size_t r = 1; r < result->rows.size(); ++r) {
    EXPECT_LE(result->rows[r - 1][0], result->rows[r][0]);
  }
}

TEST(DbTest, WriteBatchRejectsAtomically) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  batch.push_back(make_point("m", 1, 1.0));
  Point invalid;  // no measurement, no fields
  batch.push_back(invalid);
  batch.push_back(make_point("m", 2, 2.0));
  EXPECT_FALSE(db.write_batch(std::move(batch)).is_ok());
  // All-or-nothing: the valid points must not have landed.
  EXPECT_EQ(db.point_count(), 0u);
}

// ----------------------------------------------------------------- queries

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 10; ++i) {
      Point p;
      p.measurement = "kernel_percpu_cpu_idle";
      p.tags["tag"] = i < 5 ? "run-a" : "run-b";
      p.time = i * 100;
      p.fields["_cpu0"] = i;
      p.fields["_cpu1"] = 10.0 * i;
      ASSERT_TRUE(db_.write(std::move(p)).is_ok());
    }
  }
  TimeSeriesDb db_;
};

TEST_F(QueryTest, PaperListing3Shape) {
  auto result = query::run(db_,
      "SELECT \"_cpu0\", \"_cpu1\" FROM \"kernel_percpu_cpu_idle\" WHERE "
      "tag=\"run-a\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"time", "_cpu0", "_cpu1"}));
  ASSERT_EQ(result->rows.size(), 5u);
  EXPECT_DOUBLE_EQ(result->rows[2][1], 2.0);
  EXPECT_DOUBLE_EQ(result->rows[2][2], 20.0);
}

TEST_F(QueryTest, SelectStarCollectsAllFields) {
  auto result = query::run(db_, "SELECT * FROM \"kernel_percpu_cpu_idle\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"time", "_cpu0", "_cpu1"}));
  EXPECT_EQ(result->rows.size(), 10u);
}

TEST_F(QueryTest, TimeRangeFilters) {
  auto result = query::run(db_,
      "SELECT \"_cpu0\" FROM \"kernel_percpu_cpu_idle\" WHERE time >= 200 "
      "AND time <= 400");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows.size(), 3u);
  auto strict = query::run(db_,
      "SELECT \"_cpu0\" FROM \"kernel_percpu_cpu_idle\" WHERE time > 200 "
      "AND time < 400");
  EXPECT_EQ(strict->rows.size(), 1u);
}

TEST_F(QueryTest, MissingFieldIsNaN) {
  ASSERT_TRUE(db_.write(make_point("kernel_percpu_cpu_idle", 9999, 1.0))
                  .is_ok());  // only "value" field
  auto result = query::run(db_,
      "SELECT \"_cpu0\" FROM \"kernel_percpu_cpu_idle\" WHERE time >= 9999");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(std::isnan(result->rows[0][1]));
}

TEST_F(QueryTest, Aggregates) {
  auto result = query::run(db_,
      "SELECT min(\"_cpu0\"), max(\"_cpu0\"), mean(\"_cpu0\"), "
      "sum(\"_cpu0\"), count(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);
  const auto& row = result->rows[0];
  EXPECT_DOUBLE_EQ(row[1], 0.0);
  EXPECT_DOUBLE_EQ(row[2], 9.0);
  EXPECT_DOUBLE_EQ(row[3], 4.5);
  EXPECT_DOUBLE_EQ(row[4], 45.0);
  EXPECT_DOUBLE_EQ(row[5], 10.0);
}

TEST_F(QueryTest, StddevFirstLast) {
  auto result = query::run(db_,
      "SELECT stddev(\"_cpu0\"), first(\"_cpu0\"), last(\"_cpu0\") FROM "
      "\"kernel_percpu_cpu_idle\" WHERE tag=\"run-a\"");
  ASSERT_TRUE(result.has_value());
  const auto& row = result->rows[0];
  EXPECT_NEAR(row[1], 1.5811, 1e-3);  // stddev of 0..4
  EXPECT_DOUBLE_EQ(row[2], 0.0);
  EXPECT_DOUBLE_EQ(row[3], 4.0);
}

TEST_F(QueryTest, AggregateOfEmptySelectionIsNaN) {
  auto result = query::run(db_,
      "SELECT mean(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\" WHERE "
      "tag=\"missing\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(std::isnan(result->rows[0][1]));
}

TEST_F(QueryTest, ErrorCases) {
  EXPECT_FALSE(query::run(db_, "").has_value());
  EXPECT_FALSE(query::run(db_, "DELETE FROM x").has_value());
  EXPECT_FALSE(query::run(db_, "SELECT \"a\" FROM \"missing_measurement\"")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT FROM \"kernel_percpu_cpu_idle\"")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT bogus(\"x\") FROM \"kernel_percpu_cpu_idle\"")
                   .has_value());
  EXPECT_FALSE(
      query::run(db_, "SELECT \"a\", mean(\"b\") FROM \"kernel_percpu_cpu_idle\"")
          .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT \"a\" FROM \"kernel_percpu_cpu_idle\" "
                         "WHERE time ~ 5")
                   .has_value());
}

TEST_F(QueryTest, CaseInsensitiveKeywords) {
  auto result = query::run(db_,
      "select \"_cpu0\" from \"kernel_percpu_cpu_idle\" where tag='run-b'");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows.size(), 5u);
}


TEST_F(QueryTest, GroupByTimeDownsamples) {
  // 10 points at t = 0..900; 250ns buckets -> 4 buckets of sizes 3,2,3,2.
  auto result = query::run(db_,
      "SELECT mean(\"_cpu0\"), count(\"_cpu0\") FROM "
      "\"kernel_percpu_cpu_idle\" GROUP BY time(250ns)");
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_DOUBLE_EQ(result->rows[0][0], 0.0);    // bucket start stamps
  EXPECT_DOUBLE_EQ(result->rows[1][0], 250.0);
  EXPECT_DOUBLE_EQ(result->rows[0][1], 1.0);    // mean of {0,1,2}
  EXPECT_DOUBLE_EQ(result->rows[0][2], 3.0);    // count
  EXPECT_DOUBLE_EQ(result->rows[1][1], 3.5);    // mean of {3,4}
}

TEST_F(QueryTest, GroupByTimeWithWhere) {
  auto result = query::run(db_,
      "SELECT sum(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\" WHERE "
      "tag=\"run-a\" GROUP BY time(1s)");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);  // all of run-a in one 1s bucket
  EXPECT_DOUBLE_EQ(result->rows[0][1], 10.0);  // 0+1+2+3+4
}

TEST_F(QueryTest, GroupByTimeUnits) {
  // 1us = 1000ns covers all points in one bucket.
  auto result = query::run(db_,
      "SELECT count(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\" "
      "GROUP BY time(1us)");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result->rows[0][1], 10.0);
}

TEST_F(QueryTest, GroupByTimeErrors) {
  // Raw selectors cannot be grouped.
  EXPECT_FALSE(query::run(db_, "SELECT \"_cpu0\" FROM "
                         "\"kernel_percpu_cpu_idle\" GROUP BY time(1s)")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT mean(\"_cpu0\") FROM "
                         "\"kernel_percpu_cpu_idle\" GROUP BY tag")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT mean(\"_cpu0\") FROM "
                         "\"kernel_percpu_cpu_idle\" GROUP BY time(abc)")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT mean(\"_cpu0\") FROM "
                         "\"kernel_percpu_cpu_idle\" GROUP BY time(0s)")
                   .has_value());
}

// --------------------------------------------------------------- retention

TEST(RetentionTest, DropsOldPoints) {
  TimeSeriesDb db(RetentionPolicy{1000});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.write(make_point("m", i * 500, i)).is_ok());
  }
  // now = 4500; cutoff = 3500 -> keeps t in {3500, 4000, 4500}.
  const std::size_t dropped = db.enforce_retention(4500);
  EXPECT_EQ(dropped, 7u);
  EXPECT_EQ(db.point_count("m"), 3u);
}

TEST(RetentionTest, ZeroDurationKeepsForever) {
  TimeSeriesDb db;
  ASSERT_TRUE(db.write(make_point("m", 0, 1.0)).is_ok());
  EXPECT_EQ(db.enforce_retention(1'000'000'000), 0u);
  EXPECT_EQ(db.point_count(), 1u);
}



TEST(DbConcurrencyTest, ParallelWritersAndReaders) {
  TimeSeriesDb db;
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        Point p;
        p.measurement = "m" + std::to_string(w);
        p.time = i;
        p.fields["v"] = i;
        ASSERT_TRUE(db.write(std::move(p)).is_ok());
      }
    });
  }
  // A reader hammers queries while writes are in flight.
  threads.emplace_back([&db] {
    for (int i = 0; i < 200; ++i) {
      auto result = query::run(db, "SELECT count(\"v\") FROM \"m0\"");
      if (result.has_value()) {
        ASSERT_LE(result->rows[0][1], 2000.0);
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.point_count(), kWriters * kPerWriter);
}

TEST(DbPersistenceTest, DumpLoadRoundTrip) {
  TimeSeriesDb db;
  for (int i = 0; i < 20; ++i) {
    Point p;
    p.measurement = i % 2 == 0 ? "m_even" : "m_odd";
    p.tags["tag"] = "run";
    p.time = i * 10;
    p.fields["v"] = 1.5 * i;
    ASSERT_TRUE(db.write(std::move(p)).is_ok());
  }
  const std::string path =
      "/tmp/pmove_tsdb_" + std::to_string(::getpid()) + ".lp";
  ASSERT_TRUE(db.dump_to_file(path).is_ok());
  TimeSeriesDb restored;
  ASSERT_TRUE(restored.load_from_file(path).is_ok());
  EXPECT_EQ(restored.point_count(), db.point_count());
  EXPECT_EQ(restored.measurements(), db.measurements());
  auto original = query::run(db, "SELECT \"v\" FROM \"m_even\"");
  auto replayed = query::run(restored, "SELECT \"v\" FROM \"m_even\"");
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->rows, original->rows);
  std::remove(path.c_str());
  EXPECT_FALSE(restored.load_from_file("/no/such.lp").is_ok());
}

TEST(DbPersistenceTest, LoadKeepsLinesBeforeABadLineInsideAChunk) {
  // 6 000 lines, some blank; line 5 000 (the 904th of the second 4 096-line
  // chunk) is malformed.  Every line before it lands; the error names it.
  const std::string path =
      "/tmp/pmove_tsdb_badline_" + std::to_string(::getpid()) + ".lp";
  std::size_t before_bad = 0;
  {
    std::ofstream out(path, std::ios::binary);
    for (int i = 1; i <= 6000; ++i) {
      if (i == 5000) {
        out << "m,host=h1 v=oops " << i << "\n";
      } else if (i % 500 == 0) {
        out << "  \r\n";
      } else {
        out << "m,host=h" << i % 7 << " v=" << i << " " << i << "\n";
        if (i < 5000) ++before_bad;
      }
    }
  }
  TimeSeriesDb db;
  const Status s = db.load_from_file(path);
  EXPECT_EQ(s.code(), ErrorCode::kParseError);
  EXPECT_EQ(s.message(), path + ":5000: non-numeric field value: oops");
  EXPECT_EQ(db.point_count(), before_bad);
  auto last = query::run(db, "SELECT last(\"v\"), count(\"v\") FROM \"m\"");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->rows[0][1], 4999.0);
  EXPECT_EQ(last->rows[0][2], static_cast<double>(before_bad));
  std::remove(path.c_str());
}

TEST(DbTest, ClearResets) {
  TimeSeriesDb db;
  ASSERT_TRUE(db.write(make_point("m", 0, 1.0)).is_ok());
  db.clear();
  EXPECT_EQ(db.point_count(), 0u);
}

TEST(QueryResultTest, ColumnIndex) {
  QueryResult result;
  result.columns = {"time", "_cpu0"};
  EXPECT_EQ(result.column_index("_cpu0"), 1u);
  EXPECT_EQ(result.column_index("none"), 2u);  // == columns.size()
}

// ------------------------------------------------------- columnar engine
//
// The storage rewrite must be invisible from the outside: same query
// answers bit for bit, same dump format, same epoch semantics.  These
// tests pin the parts the generic suites above don't reach — escaped
// round-trips, every aggregate against an independent evaluator, trim +
// compaction behaviour, and the zero-copy scan API itself.

TEST(ColumnarTest, DumpLoadRoundTripsEscapesAndMixedFieldSets) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  for (int i = 0; i < 12; ++i) {
    Point p;
    p.measurement = "weird m,easure=ment";
    p.tags["k ey"] = i % 2 == 0 ? "v,alue" : "other=value";
    p.tags["host"] = "h" + std::to_string(i % 3);
    p.time = (11 - i) * 100;  // arrive in reverse time order
    // Disjoint field sets per parity class: the columnar store must track
    // presence, not just store NaN.
    if (i % 2 == 0) p.fields["f=irst"] = 0.1 * i;
    if (i % 3 == 0) p.fields["se cond"] = -2.5 * i;
    if (p.fields.empty()) p.fields["f=irst"] = 7.0;
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  const std::string path =
      "/tmp/pmove_columnar_" + std::to_string(::getpid()) + ".lp";
  ASSERT_TRUE(db.dump_to_file(path).is_ok());
  TimeSeriesDb restored;
  ASSERT_TRUE(restored.load_from_file(path).is_ok());
  // Point-level equality in scan order, not just counts.
  const auto all = [](const TimeSeriesDb& d) {
    return d.collect("weird m,easure=ment",
                     std::numeric_limits<TimeNs>::min(),
                     std::numeric_limits<TimeNs>::max(), {});
  };
  const std::vector<Point> expect = all(db);
  const std::vector<Point> got = all(restored);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].measurement, expect[i].measurement);
    EXPECT_EQ(got[i].tags, expect[i].tags);
    EXPECT_EQ(got[i].fields, expect[i].fields);
    EXPECT_EQ(got[i].time, expect[i].time);
  }
  std::remove(path.c_str());
}

TEST(ColumnarTest, EveryAggregateMatchesIndependentEvaluator) {
  TimeSeriesDb db;
  // Two interleaved tag sets with awkward doubles: aggregation folds the
  // merged (time, arrival) order, so any ordering drift shows up as a
  // last-bit difference in sum/mean/stddev.
  std::vector<double> values;
  std::vector<Point> batch;
  for (int i = 0; i < 257; ++i) {
    Point p;
    p.measurement = "agg";
    p.tags["set"] = i % 2 == 0 ? "a" : "b";
    p.time = i;
    const double v = std::sin(0.1 * i) * 1e3 + 1.0 / (i + 3);
    p.fields["v"] = v;
    values.push_back(v);
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());

  // The seed evaluator, reimplemented from its documented fold order:
  // sum/mean left-to-right in point order, stddev two-pass with n-1.
  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (double v : values) sq += (v - mean) * (v - mean);
  const double stddev =
      std::sqrt(sq / static_cast<double>(values.size() - 1));
  const double expected[] = {
      mean,
      *std::min_element(values.begin(), values.end()),
      *std::max_element(values.begin(), values.end()),
      sum,
      static_cast<double>(values.size()),
      stddev,
      values.front(),
      values.back(),
  };
  const char* names[] = {"mean", "min",    "max",   "sum",
                         "count", "stddev", "first", "last"};
  for (std::size_t i = 0; i < std::size(names); ++i) {
    auto result = query::run(db, "SELECT " + std::string(names[i]) +
                           "(\"v\") FROM \"agg\"");
    ASSERT_TRUE(result.has_value()) << names[i];
    ASSERT_EQ(result->rows.size(), 1u) << names[i];
    // Bit-for-bit: EXPECT_EQ, not NEAR.
    EXPECT_EQ(result->rows[0][1], expected[i]) << names[i];
  }
}

TEST(ColumnarTest, RetentionTrimCompactsAndBumpsOnlyTrimmedEpochs) {
  TimeSeriesDb db(RetentionPolicy{1000});
  std::vector<Point> batch;
  for (int i = 0; i < 3000; ++i) {
    batch.push_back(make_point("old", i, i));
  }
  batch.push_back(make_point("fresh", 2999, 1.0));
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  const std::uint64_t old_epoch = db.write_epoch("old");
  const std::uint64_t fresh_epoch = db.write_epoch("fresh");
  // cutoff = 2999 - 1000: trims most of "old" (past the compaction
  // threshold, so the head offset collapses) and nothing of "fresh".
  const std::size_t dropped = db.enforce_retention(2999);
  EXPECT_EQ(dropped, 1999u);
  EXPECT_EQ(db.point_count("old"), 1001u);
  EXPECT_NE(db.write_epoch("old"), old_epoch);
  EXPECT_EQ(db.write_epoch("fresh"), fresh_epoch);
  // Trimmed data is gone from every read path; survivors are intact.
  auto result = query::run(db, "SELECT first(\"value\"), count(\"value\") "
                         "FROM \"old\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows[0][1], 1999.0);
  EXPECT_EQ(result->rows[0][2], 1001.0);
  // Stats see the live rows only.
  EXPECT_EQ(db.stats().points, 1002u);
}

TEST(ColumnarTest, ScanOrdersSeriesAndClipsRows) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  for (int i = 0; i < 10; ++i) {
    Point p;
    p.measurement = "m";
    p.tags["host"] = i % 2 == 0 ? "zeta" : "alpha";
    p.time = i;
    p.fields["v"] = i;
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  // Absent measurement: callback still runs (empty), returns false.
  bool visited = false;
  EXPECT_FALSE(db.scan("nope", 0, 10, {},
                       [&](std::span<const SeriesView> views) {
                         visited = true;
                         EXPECT_TRUE(views.empty());
                       }));
  EXPECT_TRUE(visited);
  // Series arrive ordered by decoded tag set (alpha before zeta even
  // though zeta was created first), rows clipped to the time range.
  int calls = 0;
  EXPECT_TRUE(db.scan(
      "m", 2, 7, {}, [&](std::span<const SeriesView> views) {
        ++calls;
        ASSERT_EQ(views.size(), 2u);
        EXPECT_EQ(views[0].decode_tags().at("host"), "alpha");
        EXPECT_EQ(views[1].decode_tags().at("host"), "zeta");
        // alpha holds odd times {3,5,7}, zeta even {2,4,6}.  These rows
        // live in one (active) run, so the views are contiguous and the
        // span accessors are valid.
        ASSERT_EQ(views[0].rows(), 3u);
        ASSERT_TRUE(views[0].contiguous());
        EXPECT_EQ(views[0].times()[0], 3);
        EXPECT_EQ(views[0].values(0)[2], 7.0);
        ASSERT_EQ(views[1].rows(), 3u);
        EXPECT_EQ(views[1].times()[0], 2);
      }));
  EXPECT_EQ(calls, 1);
  // A range covering only one series omits the empty view entirely.
  EXPECT_TRUE(db.scan("m", 2, 2, {},
                      [&](std::span<const SeriesView> views) {
                        ASSERT_EQ(views.size(), 1u);
                        EXPECT_EQ(views[0].decode_tags().at("host"),
                                  "zeta");
                      }));
  // Unknown tag value: found, but zero matching series.
  EXPECT_TRUE(db.scan("m", 0, 10, {{"host", "gamma"}},
                      [&](std::span<const SeriesView> views) {
                        EXPECT_TRUE(views.empty());
                      }));
}

TEST(ColumnarTest, ScanReadersRaceBatchWriters) {
  // TSan target: scan callbacks read view rows under the shared lock
  // while writers append, seal runs, fold them, and retention trims under
  // the exclusive lock.  Any view escaping the lock or a writer mutating
  // live storage mid-callback is a data race here.
  TimeSeriesDb db(RetentionPolicy{100'000});
  // Tiny runs so the race window covers seal + fold, not just appends.
  db.set_run_config({/*seal_rows=*/64, /*max_sealed=*/2, /*fold_ratio=*/0.5});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int b = 0; b < 60; ++b) {
      std::vector<Point> batch;
      for (int i = 0; i < 200; ++i) {
        Point p;
        p.measurement = "race";
        p.tags["set"] = "s" + std::to_string(i % 4);
        p.time = b * 200 + i;
        p.fields["v"] = i;
        batch.push_back(std::move(p));
      }
      ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
      if (b % 16 == 15) db.enforce_retention(b * 200);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        db.scan("race", 0, std::numeric_limits<TimeNs>::max(), {},
                [](std::span<const SeriesView> views) {
                  double sum = 0.0;
                  for (const SeriesView& view : views) {
                    std::size_t rows = 0;
                    view.for_each_row([&](SeriesView::Loc loc, TimeNs) {
                      ++rows;
                      for (std::size_t f = 0; f < view.field_count(); ++f) {
                        if (view.has_value(f, loc)) {
                          sum += view.value_at(f, loc);
                        }
                      }
                    });
                    ASSERT_EQ(rows, view.rows());
                  }
                  ASSERT_GE(sum, 0.0);
                });
        // Leave a gap between scans: glibc's rwlock admits readers while
        // one holds it, so back-to-back scanning from three threads would
        // starve the writer's exclusive acquisition indefinitely.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(db.point_count(), 12'000u);
}

TEST(ColumnarTest, StatsAndTelemetryGauges) {
  TimeSeriesDb db;
  db.set_telemetry_instance("test_db");
  std::vector<Point> batch;
  for (int i = 0; i < 8; ++i) {
    Point p;
    p.measurement = i < 4 ? "a" : "b";
    p.tags["host"] = "h" + std::to_string(i % 2);
    p.time = i;
    p.fields["x"] = i;
    p.fields["y"] = -i;
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  const TsdbStats stats = db.stats();
  EXPECT_EQ(stats.measurements, 2u);
  EXPECT_EQ(stats.series, 4u);  // 2 measurements x 2 tag sets
  EXPECT_EQ(stats.points, 8u);
  EXPECT_GE(stats.dict_strings, 3u);  // "host", "h0", "h1"
  EXPECT_GT(stats.dict_bytes, 0u);
  // 8 rows x (time + seq) + 16 field cells x 8 bytes.
  EXPECT_EQ(stats.column_bytes, 8u * 16u + 16u * 8u);
  auto& gauge = metrics::Registry::global().gauge(
      "pmove_tsdb", "test_db", "points");
  EXPECT_EQ(gauge.value(), 8.0);
}

TEST(ColumnarTest, RunningGaugesMatchFullRecountUnderMixedOperations) {
  // The gauges come from running totals; stats() recounts every series,
  // run and posting list.  A seeded mix of writes (appends, seals, folds,
  // packs), retention trims, compactions, drops and a clear must keep the
  // two equal after every operation.
  TimeSeriesDb db(RetentionPolicy{400});
  db.set_telemetry_instance("gauge_recount");
  db.set_run_config({/*seal_rows=*/4, /*max_sealed=*/2, /*fold_ratio=*/0.5});
  PackConfig pack;
  pack.min_rows = 4;
  db.set_pack_config(pack);
  auto& reg = metrics::Registry::global();
  const auto gauge = [&reg](const char* name) {
    return reg.gauge("pmove_tsdb", "gauge_recount", name).value();
  };
  std::size_t most_packed = 0;
  std::size_t most_sealed = 0;
  const auto check = [&](int step) {
    const TsdbStats st = db.stats();
    const std::pair<const char*, double> expected[] = {
        {"series", static_cast<double>(st.series)},
        {"points", static_cast<double>(st.points)},
        {"dict_strings", static_cast<double>(st.dict_strings)},
        {"dict_bytes", static_cast<double>(st.dict_bytes)},
        {"column_bytes", static_cast<double>(st.column_bytes)},
        {"sealed_runs", static_cast<double>(st.sealed_runs)},
        {"run_seals", static_cast<double>(st.run_seals)},
        {"run_folds", static_cast<double>(st.run_folds)},
        {"compressed_runs", static_cast<double>(st.compressed_runs)},
        {"bytes_raw", static_cast<double>(st.bytes_raw)},
        {"bytes_packed", static_cast<double>(st.bytes_packed)},
        {"pack_time_ns", static_cast<double>(st.pack_time_ns)},
        {"index_postings", static_cast<double>(st.index_postings)},
        {"index_probes", static_cast<double>(st.index_probes)},
        {"index_scans", static_cast<double>(st.index_scans)},
        {"index_fallbacks", static_cast<double>(st.index_fallbacks)},
    };
    for (const auto& [name, value] : expected) {
      EXPECT_EQ(gauge(name), value) << name << " after step " << step;
    }
    most_packed = std::max(most_packed, st.compressed_runs);
    most_sealed = std::max(most_sealed, st.sealed_runs);
  };
  std::mt19937_64 rng(0x6a09e667f3bcc908ULL);
  const char* const kMeasurements[] = {"a", "b", "c"};
  const char* const kFields[] = {"x", "y", "z"};
  TimeNs now = 1000;
  for (int step = 0; step < 800; ++step) {
    const std::string measurement = kMeasurements[rng() % 3];
    const std::string host = "h" + std::to_string(rng() % 6);
    switch (rng() % 12) {
      case 8:
        db.enforce_retention(now);
        break;
      case 9:
        db.compact();
        break;
      case 10:
        db.drop_series(measurement, {{"host", host}});
        break;
      case 11:
        if (rng() % 3 == 0) {
          db.drop_measurement(measurement);
        } else if (step == 400) {
          db.clear();
        }
        break;
      default: {
        std::vector<Point> batch;
        for (std::size_t n = 1 + rng() % 24; n > 0; --n) {
          Point p;
          p.measurement = kMeasurements[rng() % 3];
          p.tags["host"] = "h" + std::to_string(rng() % 6);
          if (rng() % 4 == 0) p.tags["rack"] = "r" + std::to_string(rng() % 2);
          p.time = now + static_cast<TimeNs>(rng() % 60) - 30;
          for (const char* f : kFields) {
            if (rng() % 4 != 0) p.fields[f] = static_cast<double>(rng() % 100);
          }
          if (p.fields.empty()) p.fields["x"] = 1.0;
          batch.push_back(std::move(p));
          now += 3;
        }
        ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
        break;
      }
    }
    check(step);
    if (::testing::Test::HasFailure()) return;
  }
  // The mix really sealed, folded and packed runs.
  EXPECT_GT(most_packed, 0u);
  EXPECT_GT(most_sealed, 0u);
  EXPECT_GT(db.stats().run_folds, 0u);
}

// ------------------------------------------------------------- LSM runs

TEST(ColumnarTest, OutOfOrderArrivalsSpanActiveAndSealedRuns) {
  TimeSeriesDb db;
  // Tiny seal threshold, folding effectively disabled: the series ends up
  // as base + several sealed runs + a live active run, and the scan has to
  // interleave all of them.
  db.set_run_config({/*seal_rows=*/8, /*max_sealed=*/1000,
                     /*fold_ratio=*/1e9});
  // Deterministic shuffle of [0, 60): every batch straddles earlier ones.
  std::uint64_t lcg = 42;
  std::vector<TimeNs> times(60);
  for (int i = 0; i < 60; ++i) times[i] = i;
  for (int i = 59; i > 0; --i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(times[i], times[(lcg >> 33) % (i + 1)]);
  }
  for (int b = 0; b < 20; ++b) {
    std::vector<Point> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(make_point("m", times[b * 3 + i],
                                 static_cast<double>(times[b * 3 + i])));
    }
    ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  }
  const TsdbStats stats = db.stats();
  EXPECT_GT(stats.sealed_runs, 1u);
  EXPECT_GT(stats.active_rows, 0u);
  EXPECT_GT(stats.run_seals, 0u);
  EXPECT_EQ(stats.run_folds, 0u);
  // The view stitches the runs back into (time, seq) order.
  EXPECT_TRUE(db.scan(
      "m", 0, 100, {}, [&](std::span<const SeriesView> views) {
        ASSERT_EQ(views.size(), 1u);
        ASSERT_EQ(views[0].rows(), 60u);
        TimeNs prev = -1;
        views[0].for_each_row(
            [&](SeriesView::Loc loc, TimeNs t) {
              EXPECT_GT(t, prev);
              prev = t;
              const std::size_t v = views[0].field_index("value");
              ASSERT_TRUE(views[0].has_value(v, loc));
              EXPECT_EQ(views[0].value_at(v, loc), static_cast<double>(t));
            });
      }));
  auto result = query::run(db, "SELECT \"value\" FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(result->rows[i][0], i);
}

TEST(ColumnarTest, RetentionTrimsAcrossRunsAndCompactionPreservesResults) {
  TimeSeriesDb db(RetentionPolicy{30});
  db.set_run_config({/*seal_rows=*/8, /*max_sealed=*/1000,
                     /*fold_ratio=*/1e9});
  // Writes arrive newest-first so every run holds a slice of the full
  // range and the retention cutoff lands inside all of them.
  for (int b = 7; b >= 0; --b) {
    std::vector<Point> batch;
    for (int i = 9; i >= 0; --i) {
      const TimeNs t = b * 10 + i;
      batch.push_back(make_point("m", t, static_cast<double>(t)));
    }
    ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  }
  ASSERT_GT(db.stats().sealed_runs, 1u);
  // cutoff = 79 - 30 = 49: rows 0..48 drop, 49..79 survive.
  EXPECT_EQ(db.enforce_retention(79), 49u);
  EXPECT_EQ(db.point_count("m"), 31u);
  auto before = query::run(
      db, "SELECT first(\"value\"), last(\"value\"), count(\"value\"), "
          "sum(\"value\") FROM \"m\"");
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->rows[0][1], 49.0);
  // Folding every run into the base must not change any answer.
  EXPECT_GT(db.compact(), 0u);
  const TsdbStats stats = db.stats();
  EXPECT_EQ(stats.sealed_runs, 0u);
  EXPECT_EQ(stats.active_rows, 0u);
  EXPECT_GT(stats.run_folds, 0u);
  EXPECT_EQ(db.point_count("m"), 31u);
  auto after = query::run(
      db, "SELECT first(\"value\"), last(\"value\"), count(\"value\"), "
          "sum(\"value\") FROM \"m\"");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(before->rows, after->rows);
  // A fully folded series reads back as one contiguous view.
  EXPECT_TRUE(db.scan("m", 0, 100, {},
                      [](std::span<const SeriesView> views) {
                        ASSERT_EQ(views.size(), 1u);
                        EXPECT_TRUE(views[0].contiguous());
                      }));
}

TEST(ColumnarTest, AggregatesBitForBitIdenticalAcrossRunConfigs) {
  // The run layout is an implementation detail: any seal/fold schedule
  // must fold values in the same (time, seq) order and therefore produce
  // bit-identical floating-point results.  Workload: out-of-order times,
  // two tag sets, one field that skips rows (presence maps in play).
  const RunConfig configs[] = {
      {/*seal_rows=*/2, /*max_sealed=*/1, /*fold_ratio=*/0.25},
      {/*seal_rows=*/16, /*max_sealed=*/2, /*fold_ratio=*/0.5},
      {/*seal_rows=*/4096, /*max_sealed=*/8, /*fold_ratio=*/0.5},
  };
  std::vector<TimeSeriesDb> dbs(std::size(configs));
  std::uint64_t lcg = 7;
  std::vector<Point> workload;
  for (int i = 0; i < 333; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    Point p;
    p.measurement = "m";
    p.tags["set"] = i % 3 == 0 ? "a" : "b";
    p.time = static_cast<TimeNs>((lcg >> 33) % 500);
    p.fields["v"] = std::sin(0.37 * i) * 1e6 + 1.0 / (i + 2);
    if (i % 5 != 0) p.fields["w"] = std::cos(0.11 * i);
    workload.push_back(std::move(p));
  }
  for (std::size_t d = 0; d < dbs.size(); ++d) {
    dbs[d].set_run_config(configs[d]);
    for (std::size_t start = 0; start < workload.size(); start += 16) {
      std::vector<Point> batch(
          workload.begin() + start,
          workload.begin() +
              std::min(start + 16, workload.size()));
      ASSERT_TRUE(dbs[d].write_batch(std::move(batch)).is_ok());
    }
  }
  // Mid-stream layouts really differ before queries compare them.
  EXPECT_GT(dbs[0].stats().run_folds, 0u);
  EXPECT_EQ(dbs[2].stats().run_seals, 0u);
  const char* queries[] = {
      "SELECT \"v\", \"w\" FROM \"m\"",
      "SELECT mean(\"v\"), sum(\"v\"), stddev(\"v\") FROM \"m\"",
      "SELECT min(\"v\"), max(\"v\"), count(\"w\") FROM \"m\"",
      "SELECT first(\"v\"), last(\"w\") FROM \"m\"",
      "SELECT sum(\"w\") FROM \"m\" WHERE set=\"b\"",
      "SELECT mean(\"v\") FROM \"m\" GROUP BY time(50ns)",
      "SELECT stddev(\"w\") FROM \"m\" WHERE time >= 100 AND time <= 400",
  };
  for (const char* text : queries) {
    auto baseline = query::run(dbs[0], text);
    ASSERT_TRUE(baseline.has_value()) << text;
    for (std::size_t d = 1; d < dbs.size(); ++d) {
      auto got = query::run(dbs[d], text);
      ASSERT_TRUE(got.has_value()) << text;
      EXPECT_EQ(baseline->columns, got->columns) << text;
      ASSERT_EQ(baseline->rows.size(), got->rows.size()) << text;
      for (std::size_t r = 0; r < baseline->rows.size(); ++r) {
        ASSERT_EQ(baseline->rows[r].size(), got->rows[r].size()) << text;
        for (std::size_t c = 0; c < baseline->rows[r].size(); ++c) {
          // Bit-level equality: stricter than ==, and NaN (a missing
          // field) must reproduce as NaN too.
          EXPECT_EQ(std::bit_cast<std::uint64_t>(baseline->rows[r][c]),
                    std::bit_cast<std::uint64_t>(got->rows[r][c]))
              << text << " row " << r << " col " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pmove::tsdb
