#include "gen.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/rng.hpp"

namespace pb {

namespace {

std::size_t scaled(double factor, std::size_t base) {
  const double v = std::round(static_cast<double>(base) * factor);
  return v < 1.0 ? 1 : static_cast<std::size_t>(v);
}

std::string padded(const std::string& prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%05zu", i);
  return prefix + buf;
}

}  // namespace

std::vector<std::string> cpu_fields(std::size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back("_cpu" + std::to_string(i));
  return out;
}

Scale Scale::make(double factor) {
  Scale s;
  s.factor = factor;

  // ingest_wal: ~2 000 sampler hosts, 16 per-CPU perfevent counters, a few
  // hundred lines per batch, 2 % of rows late by a few periods.
  s.ingest.measurement = "perfevent";
  s.ingest.tag_key = "host";
  s.ingest.tag_prefix = "h";
  s.ingest.series = scaled(factor, 2000);
  s.ingest.fields = cpu_fields(16);
  s.ingest.step_ns = pmove::kNsPerSec;
  s.ingest.ooo_fraction = 0.02;
  s.ingest.batch_rows = 256;
  s.ingest.salt = 1;

  // dashboard_live, dense: 64 hosts x 4 per-CPU fields at 8 Hz (the middle
  // sampling rate of the paper's Table III), a long history.  The live
  // writer appends one tick (one row per host) per sample period.
  s.dense.measurement = "cpu";
  s.dense.tag_key = "host";
  s.dense.tag_prefix = "h";
  s.dense.series = 64;
  s.dense.fields = cpu_fields(4);
  s.dense.step_ns = pmove::kNsPerSec / 8;
  s.dense.batch_rows = s.dense.series;
  s.dense.salt = 2;
  s.dense_history_rows = scaled(factor, 1'500'000) / 64 * 64;

  // dashboard_live, process level: ~10 000 processes on the 64 hosts, a few
  // points each.  The writer touches batch_rows processes per dense tick,
  // so one procs tick lasts series / batch_rows dense ticks; step_ns makes
  // both measurements advance on the same clock.
  s.procs.measurement = "proc";
  s.procs.tag_key = "pid";
  s.procs.tag_prefix = "p";
  s.procs.group_key = "host";
  s.procs.groups = s.dense.series;
  s.procs.batch_rows = 200;
  s.procs.series = scaled(factor, 10'000) / s.procs.batch_rows *
                   s.procs.batch_rows;
  if (s.procs.series == 0) s.procs.series = s.procs.batch_rows;
  s.procs.fields = std::vector<std::string>{"cpu_pct", "ipc", "rss_mb"};
  s.procs.integral = false;
  s.procs.step_ns = s.dense.step_ns *
                    static_cast<TimeNs>(s.procs.series / s.procs.batch_rows);
  s.procs.salt = 3;
  s.procs_history_rows = 4 * s.procs.series;
  // Both histories end at the same instant: the dashboard's first "now".
  const TimeNs dense_end =
      s.dense.start_ns +
      static_cast<TimeNs>(s.dense_history_rows / s.dense.series) *
          s.dense.step_ns;
  s.procs.start_ns =
      dense_end - static_cast<TimeNs>(s.procs_history_rows / s.procs.series) *
                      s.procs.step_ns;

  // fleet_wire: 512 hosts x 8 counters routed over 4 nodes.  A batch costs
  // four RPC round trips whatever its size, so a larger batch is less bound
  // by thread wake-ups; at 256 points a run still holds several 1 000-ack
  // windows for the p99.
  s.fleet.measurement = "perfevent";
  s.fleet.tag_key = "host";
  s.fleet.tag_prefix = "h";
  s.fleet.series = scaled(factor, 512);
  s.fleet.fields = cpu_fields(8);
  s.fleet.step_ns = pmove::kNsPerSec;
  s.fleet.ooo_fraction = 0.01;
  s.fleet.batch_rows = 256;
  s.fleet.salt = 4;
  s.fleet_rows = scaled(factor, 200'000);
  return s;
}

Generator::Generator(std::uint64_t seed, Stream stream)
    : seed_(seed), stream_(std::move(stream)) {
  if (stream_.series == 0) stream_.series = 1;
  if (stream_.groups == 0) stream_.groups = 1;
  tag_values_.reserve(stream_.series);
  for (std::size_t i = 0; i < stream_.series; ++i) {
    tag_values_.push_back(padded(stream_.tag_prefix, i));
  }
  for (std::size_t g = 0; g < stream_.groups; ++g) {
    group_values_.push_back(padded("h", g));
  }
}

std::uint64_t Generator::hash(std::uint64_t row, std::uint64_t lane) const {
  return pmove::mix_seed(
      pmove::mix_seed(seed_ ^ (stream_.salt << 56), row), lane);
}

TimeNs Generator::time_of(std::uint64_t row) const {
  const std::uint64_t tick = row / stream_.series;
  const std::size_t s = series_of(row);
  // Series sample at staggered instants inside each period.
  TimeNs t = tick_time(tick) +
             static_cast<TimeNs>(s) * (stream_.step_ns /
                                       static_cast<TimeNs>(stream_.series));
  if (stream_.ooo_fraction > 0.0) {
    const std::uint64_t h = hash(row, 0xA11);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < stream_.ooo_fraction) {
      t -= static_cast<TimeNs>(1 + (h & 3)) * stream_.step_ns;
    }
  }
  return t;
}

double Generator::value(std::uint64_t row, std::size_t field) const {
  const std::uint64_t h = hash(row, field + 1);
  if (stream_.integral) return static_cast<double>(h >> 44);  // [0, 2^20)
  return static_cast<double>(h >> 46) / 8.0;                  // 1/8 steps
}

std::string Generator::series_tag(std::size_t series) const {
  return tag_values_[series % tag_values_.size()];
}

void Generator::append_line(std::uint64_t row, std::string& out) const {
  const std::size_t s = series_of(row);
  out += stream_.measurement;
  if (!stream_.group_key.empty()) {
    out += ',';
    out += stream_.group_key;
    out += '=';
    out += group_values_[s % group_values_.size()];
  }
  out += ',';
  out += stream_.tag_key;
  out += '=';
  out += tag_values_[s];
  char buf[48];
  for (std::size_t f = 0; f < stream_.fields.size(); ++f) {
    out += f == 0 ? ' ' : ',';
    out += stream_.fields[f];
    out += '=';
    const int n = pmove::tsdb::lp::format_value(buf, value(row, f));
    out.append(buf, static_cast<std::size_t>(n));
  }
  out += ' ';
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, time_of(row));
  (void)ec;
  out.append(buf, end);
  out += '\n';
}

pmove::tsdb::Point Generator::point(std::uint64_t row) const {
  pmove::tsdb::Point p;
  const std::size_t s = series_of(row);
  p.measurement = stream_.measurement;
  p.tags.emplace(stream_.tag_key, tag_values_[s]);
  if (!stream_.group_key.empty()) {
    p.tags.emplace(stream_.group_key, group_values_[s % group_values_.size()]);
  }
  for (std::size_t f = 0; f < stream_.fields.size(); ++f) {
    p.fields.emplace_hint(p.fields.end(), stream_.fields[f], value(row, f));
  }
  p.time = time_of(row);
  return p;
}

std::string Generator::lines(std::uint64_t first, std::size_t count) const {
  std::string out;
  out.reserve(count * (32 + 12 * stream_.fields.size()));
  for (std::size_t i = 0; i < count; ++i) append_line(first + i, out);
  return out;
}

std::vector<pmove::tsdb::Point> Generator::points(std::uint64_t first,
                                                  std::size_t count) const {
  std::vector<pmove::tsdb::Point> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(point(first + i));
  return out;
}

}  // namespace pb
