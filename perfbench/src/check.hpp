// Correctness checks of the benchmark.  They run outside every timed
// region; a mismatch counts as a failed operation and fails the command.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "gen.hpp"
#include "tsdb/db.hpp"

namespace pb {

/// Bit-for-bit equality of two query answers (NaN payloads and -0.0
/// included).  On mismatch, `why` names the first difference.
bool same_result(const pmove::tsdb::QueryResult& a,
                 const pmove::tsdb::QueryResult& b, std::string* why);

/// Order-independent digest of a multiset of rows: a dropped, duplicated
/// or altered row changes it.
struct Digest {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  std::uint64_t xored = 0;

  void add(std::uint64_t row_hash) {
    rows += 1;
    sum += row_hash;
    xored ^= row_hash * 0x9e3779b97f4a7c15ULL;
  }
  void merge(const Digest& d) {
    rows += d.rows;
    sum += d.sum;
    xored ^= d.xored;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Hash of one stored row: series tag value, timestamp and field bits in
/// the stream's field order.
std::uint64_t row_hash(std::string_view series_tag, pmove::TimeNs time,
                       const double* values, std::size_t n);

/// Digest of generator rows [first, first + count).
Digest expected_digest(const Generator& gen, std::uint64_t first,
                       std::size_t count);

/// Digest of every row `db` stores for the generator's measurement.
Digest stored_digest(const pmove::tsdb::TimeSeriesDb& db,
                     const Stream& stream);

}  // namespace pb
