#include "support/reference_line_protocol.hpp"

#include <cstdlib>
#include <string>
#include <vector>

#include "util/strings.hpp"

namespace pmove::testing {

namespace {

using tsdb::Point;

std::string unescape(std::string_view s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out += s[i];
  }
  return out;
}

// Splits on `sep` respecting backslash escapes.
std::vector<std::string> split_escaped(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      current += text[i];
      current += text[i + 1];
      ++i;
    } else if (text[i] == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += text[i];
    }
  }
  parts.push_back(current);
  return parts;
}

}  // namespace

Expected<Point> reference_from_line(std::string_view line) {
  line = strings::trim(line);
  if (line.empty()) return Status::parse_error("empty line-protocol line");

  // Split into up to 3 space-separated sections (escaped spaces respected).
  std::vector<std::string> sections;
  std::string current;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      current += line[i];
      current += line[i + 1];
      ++i;
    } else if (line[i] == ' ' && sections.size() < 2) {
      sections.push_back(current);
      current.clear();
    } else {
      current += line[i];
    }
  }
  sections.push_back(current);
  if (sections.size() < 2) {
    return Status::parse_error("line protocol needs measurement and fields");
  }

  Point point;
  auto head = split_escaped(sections[0], ',');
  point.measurement = unescape(head[0]);
  if (point.measurement.empty()) {
    return Status::parse_error("empty measurement name");
  }
  for (std::size_t i = 1; i < head.size(); ++i) {
    auto kv = split_escaped(head[i], '=');
    if (kv.size() != 2) return Status::parse_error("malformed tag: " + head[i]);
    std::string key = unescape(kv[0]);
    if (key.empty()) return Status::parse_error("empty tag key: " + head[i]);
    point.tags[std::move(key)] = unescape(kv[1]);
  }
  for (const auto& field : split_escaped(sections[1], ',')) {
    auto kv = split_escaped(field, '=');
    if (kv.size() != 2) {
      return Status::parse_error("malformed field: " + field);
    }
    if (unescape(kv[0]).empty()) {
      return Status::parse_error("empty field name: " + field);
    }
    char* end = nullptr;
    const std::string value_text = unescape(kv[1]);
    double value = std::strtod(value_text.c_str(), &end);
    if (end != value_text.c_str() + value_text.size()) {
      return Status::parse_error("non-numeric field value: " + value_text);
    }
    point.fields[unescape(kv[0])] = value;
  }
  if (point.fields.empty()) return Status::parse_error("no fields in line");
  if (sections.size() == 3) {
    const std::string ts = std::string(strings::trim(sections[2]));
    if (!ts.empty()) {
      char* end = nullptr;
      point.time = std::strtoll(ts.c_str(), &end, 10);
      if (end != ts.c_str() + ts.size()) {
        return Status::parse_error("bad timestamp: " + ts);
      }
    }
  }
  return point;
}

}  // namespace pmove::testing
