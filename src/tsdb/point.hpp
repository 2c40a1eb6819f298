// Time-series data point and line-protocol codec.
//
// Mirrors the InfluxDB 1.x data model the paper's KB queries target: a
// point belongs to a measurement, carries a tag set (indexed metadata like
// the observation UUID) and a field set (the sampled values, e.g. one field
// per CPU: "_cpu0", "_cpu1", ...).
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "util/clock.hpp"
#include "util/status.hpp"

namespace pmove::tsdb {

struct Point {
  std::string measurement;
  std::map<std::string, std::string> tags;
  std::map<std::string, double> fields;
  TimeNs time = 0;

  /// InfluxDB line protocol:
  ///   measurement,tag=v field1=1.5,field2=2 1690000000000000000
  [[nodiscard]] std::string to_line() const;
  /// Parses one line (a '\n' inside is an ordinary byte) through a
  /// one-row PointBatch, the project's one line-protocol grammar.
  static Expected<Point> from_line(std::string_view line);

  /// Serialized size in bytes — the unit of network/disk accounting in the
  /// resource model (Fig 6).  Computed without building the line; always
  /// equals to_line().size().
  [[nodiscard]] std::size_t wire_size() const;
};

/// Line-protocol building blocks, shared with the columnar engine's dump
/// path so it can render rows straight from column storage with exactly the
/// escaping and number formatting of Point::to_line().
namespace lp {

/// Escapes commas, spaces, '=' and backslashes in an identifier.
std::string escape(const std::string& s);

/// Appends escape(s) to `out`.
void append_escaped(std::string& out, std::string_view s);

/// Renders a field value (integral values as integers, else the shortest
/// round-trip decimal form) into `buf`; returns the length.
int format_value(char (&buf)[48], double v);

}  // namespace lp

}  // namespace pmove::tsdb
