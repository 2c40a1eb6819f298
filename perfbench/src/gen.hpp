// One generator for every workload of the benchmark.
//
// A scale factor and the seed decide everything: series count, fields,
// points per series, out-of-order fraction and batch size (the Mordred SSB
// pattern: one dbgen, many query streams).  Row `i` of a stream is a pure
// function of (seed, stream, i), so any batch can be rendered on its own,
// on any thread, and the same seed always gives byte-identical line
// protocol.  Rows render either as line protocol (what samplers send) or as
// tsdb::Point (what a preload writes directly); the two describe the same
// point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tsdb/point.hpp"
#include "util/clock.hpp"

namespace pb {

using pmove::TimeNs;

/// Shape of one generated measurement.
struct Stream {
  std::string measurement;
  std::string tag_key;       ///< series tag ("host", "pid")
  std::string tag_prefix;    ///< series tag value prefix ("h", "p")
  std::string group_key;     ///< optional second tag; empty = none
  std::size_t groups = 1;    ///< distinct group tag values (series % groups)
  std::size_t series = 1;
  std::vector<std::string> fields;
  bool integral = true;      ///< perfevent counters are integers
  TimeNs start_ns = 1'700'000'000'000'000'000;  ///< tick 0 (2023-11-14)
  TimeNs step_ns = pmove::kNsPerSec;  ///< per-series sample period
  double ooo_fraction = 0.0;  ///< rows stamped a few periods late
  std::size_t batch_rows = 256;
  std::uint64_t salt = 0;    ///< separates streams under one seed
};

/// Per-workload sizes derived from one scale factor (1.0 = the benchmark's
/// default sizes).
struct Scale {
  double factor = 1.0;
  Stream ingest;   ///< ingest_wal: sampler agents, 16 per-CPU fields
  Stream dense;    ///< dashboard_live: per-host history
  Stream procs;    ///< dashboard_live: high-cardinality process level
  Stream fleet;    ///< fleet_wire: routed sampler batches
  std::size_t dense_history_rows = 0;  ///< rows preloaded into `dense`
  std::size_t procs_history_rows = 0;  ///< rows preloaded into `procs`
  std::size_t fleet_rows = 0;          ///< rows written in the fleet phase

  static Scale make(double factor);
};

/// Per-CPU field names _cpu0 … _cpu<n-1> (the paper's perfevent shape).
std::vector<std::string> cpu_fields(std::size_t n);

class Generator {
 public:
  Generator(std::uint64_t seed, Stream stream);

  [[nodiscard]] const Stream& stream() const { return stream_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Row i belongs to series i % series at tick i / series.
  [[nodiscard]] std::size_t series_of(std::uint64_t row) const {
    return static_cast<std::size_t>(row % stream_.series);
  }
  [[nodiscard]] TimeNs time_of(std::uint64_t row) const;
  /// Timestamp tick `tick` would carry without out-of-order delay.
  [[nodiscard]] TimeNs tick_time(std::uint64_t tick) const {
    return stream_.start_ns + static_cast<TimeNs>(tick) * stream_.step_ns;
  }
  [[nodiscard]] double value(std::uint64_t row, std::size_t field) const;
  [[nodiscard]] std::string series_tag(std::size_t series) const;

  /// Appends row `row` as one line of line protocol plus '\n'.
  void append_line(std::uint64_t row, std::string& out) const;
  [[nodiscard]] pmove::tsdb::Point point(std::uint64_t row) const;

  /// Rows [first, first + count) as line protocol / points.
  [[nodiscard]] std::string lines(std::uint64_t first,
                                  std::size_t count) const;
  [[nodiscard]] std::vector<pmove::tsdb::Point> points(
      std::uint64_t first, std::size_t count) const;

 private:
  [[nodiscard]] std::uint64_t hash(std::uint64_t row,
                                   std::uint64_t lane) const;

  std::uint64_t seed_;
  Stream stream_;
  std::vector<std::string> tag_values_;    ///< per series
  std::vector<std::string> group_values_;  ///< per group
};

}  // namespace pb
