#include "check.hpp"

#include <bit>
#include <limits>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace pb {

bool same_result(const pmove::tsdb::QueryResult& a,
                 const pmove::tsdb::QueryResult& b, std::string* why) {
  auto say = [&](const std::string& s) {
    if (why != nullptr) *why = s;
    return false;
  };
  if (a.columns != b.columns) return say("columns differ");
  if (a.rows.size() != b.rows.size()) {
    return say("row count " + std::to_string(a.rows.size()) + " vs " +
               std::to_string(b.rows.size()));
  }
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) {
      return say("row " + std::to_string(r) + " width differs");
    }
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      if (std::bit_cast<std::uint64_t>(a.rows[r][c]) !=
          std::bit_cast<std::uint64_t>(b.rows[r][c])) {
        return say("row " + std::to_string(r) + " column " + a.columns[c] +
                   " differs");
      }
    }
  }
  return true;
}

std::uint64_t row_hash(std::string_view series_tag, pmove::TimeNs time,
                       const double* values, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the tag
  for (char c : series_tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  h = pmove::mix_seed(h, static_cast<std::uint64_t>(time));
  for (std::size_t i = 0; i < n; ++i) {
    h = pmove::mix_seed(h, std::bit_cast<std::uint64_t>(values[i]));
  }
  return h;
}

Digest expected_digest(const Generator& gen, std::uint64_t first,
                       std::size_t count) {
  Digest d;
  const std::size_t nf = gen.stream().fields.size();
  std::vector<double> values(nf);
  for (std::uint64_t row = first; row < first + count; ++row) {
    for (std::size_t f = 0; f < nf; ++f) values[f] = gen.value(row, f);
    d.add(row_hash(gen.series_tag(gen.series_of(row)), gen.time_of(row),
                   values.data(), nf));
  }
  return d;
}

Digest stored_digest(const pmove::tsdb::TimeSeriesDb& db,
                     const Stream& stream) {
  Digest d;
  const std::size_t nf = stream.fields.size();
  db.scan(stream.measurement, std::numeric_limits<pmove::TimeNs>::min(),
          std::numeric_limits<pmove::TimeNs>::max(), {},
          [&](std::span<const pmove::tsdb::SeriesView> views) {
            std::vector<double> values(nf);
            std::vector<std::size_t> index(nf);
            for (const pmove::tsdb::SeriesView& v : views) {
              const auto tags = v.decode_tags();
              auto it = tags.find(stream.tag_key);
              const std::string tag = it == tags.end() ? "" : it->second;
              for (std::size_t f = 0; f < nf; ++f) {
                index[f] = v.field_index(stream.fields[f]);
              }
              v.for_each_row([&](pmove::tsdb::SeriesView::Loc loc,
                                 pmove::TimeNs t, auto&&...) {
                for (std::size_t f = 0; f < nf; ++f) {
                  values[f] = index[f] < v.field_count() &&
                                      v.has_value(index[f], loc)
                                  ? v.value_at(index[f], loc)
                                  : std::numeric_limits<double>::quiet_NaN();
                }
                d.add(row_hash(tag, t, values.data(), nf));
              });
            }
          });
  return d;
}

}  // namespace pb
