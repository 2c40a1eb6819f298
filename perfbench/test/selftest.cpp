// Tests of the benchmark itself: the generator is deterministic for a seed,
// the checker rejects an answer with one bit flipped and a store that
// dropped (or duplicated) an acked point, and one burst of slow samples
// cannot set a reported p99.
//
//   cmake --build <build> --target pmbench_test && <build>/pmbench_test
#include <bit>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "check.hpp"
#include "gen.hpp"
#include "tsdb/db.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

void generator_is_deterministic() {
  const pb::Scale sc = pb::Scale::make(0.05);
  for (const pb::Stream& s : {sc.ingest, sc.dense, sc.procs, sc.fleet}) {
    const pb::Generator a(42, s), b(42, s), c(43, s);
    const std::string la = a.lines(0, 3 * s.batch_rows);
    expect(la == b.lines(0, 3 * s.batch_rows), "same seed, same bytes");
    expect(la != c.lines(0, 3 * s.batch_rows), "another seed, other bytes");
    // A batch rendered alone equals the same rows rendered in bulk.
    expect(a.lines(s.batch_rows, s.batch_rows) ==
               la.substr(a.lines(0, s.batch_rows).size(),
                         a.lines(s.batch_rows, s.batch_rows).size()),
           "batches render independently");
    // Line protocol and points describe the same rows.
    for (std::uint64_t row = 0; row < 2 * s.series; row += 7) {
      std::string line;
      a.append_line(row, line);
      line.pop_back();  // '\n'
      auto parsed = pmove::tsdb::Point::from_line(line);
      const pmove::tsdb::Point p = a.point(row);
      expect(parsed.has_value() && parsed.value().measurement == p.measurement &&
                 parsed.value().tags == p.tags && parsed.value().time == p.time &&
                 parsed.value().fields.size() == p.fields.size(),
             "line and point agree");
      if (!parsed) continue;
      for (const auto& [k, v] : p.fields) {
        auto it = parsed.value().fields.find(k);
        expect(it != parsed.value().fields.end() &&
                   std::bit_cast<std::uint64_t>(it->second) ==
                       std::bit_cast<std::uint64_t>(v),
               "field values round-trip bit for bit");
      }
    }
  }
  // Out-of-order rows exist at the ingest shape's fraction.
  const pb::Generator g(7, sc.ingest);
  std::size_t late = 0, n = 20'000;
  for (std::uint64_t row = 0; row < n; ++row) {
    if (g.time_of(row) < g.tick_time(row / g.stream().series)) ++late;
  }
  expect(late > n / 100 && late < n / 25, "about 2 % of rows arrive late");
}

void checker_rejects_one_flipped_bit() {
  pmove::tsdb::QueryResult a;
  a.columns = {"time", "mean(_cpu0)", "max(_cpu0)"};
  a.rows = {{1.0, 0.1, 3.0}, {2.0, -0.0, 4.5}};
  pmove::tsdb::QueryResult b = a;
  std::string why;
  expect(pb::same_result(a, b, &why), "identical answers match");
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      for (int bit : {0, 31, 52, 63}) {
        b = a;
        const std::uint64_t u =
            std::bit_cast<std::uint64_t>(b.rows[r][c]) ^ (1ULL << bit);
        b.rows[r][c] = std::bit_cast<double>(u);
        expect(!pb::same_result(a, b, &why), "one flipped bit is rejected");
      }
    }
  }
  b = a;
  b.rows.pop_back();
  expect(!pb::same_result(a, b, &why), "a missing row is rejected");
}

void checker_rejects_a_dropped_acked_point() {
  const pb::Scale sc = pb::Scale::make(0.05);
  const pb::Generator gen(5, sc.ingest);
  const std::size_t n = 4 * gen.stream().series;
  const pb::Digest acked = pb::expected_digest(gen, 0, n);

  pmove::tsdb::TimeSeriesDb all;
  expect(all.write_batch(gen.points(0, n)).is_ok(), "write all");
  expect(pb::stored_digest(all, gen.stream()) == acked,
         "a store holding every acked point passes");

  auto points = gen.points(0, n);
  points.erase(points.begin() + static_cast<std::ptrdiff_t>(n / 2));
  pmove::tsdb::TimeSeriesDb dropped;
  expect(dropped.write_batch(std::move(points)).is_ok(), "write all but one");
  expect(!(pb::stored_digest(dropped, gen.stream()) == acked),
         "a dropped acked point is rejected");

  points = gen.points(0, n);
  points.push_back(points[3]);
  pmove::tsdb::TimeSeriesDb duplicated;
  expect(duplicated.write_batch(std::move(points)).is_ok(), "write one twice");
  expect(!(pb::stored_digest(duplicated, gen.stream()) == acked),
         "a duplicated point is rejected");

  points = gen.points(0, n);
  points[7].fields.begin()->second += 1;
  pmove::tsdb::TimeSeriesDb altered;
  expect(altered.write_batch(std::move(points)).is_ok(), "write altered");
  expect(!(pb::stored_digest(altered, gen.stream()) == acked),
         "an altered value is rejected");
}

void one_burst_cannot_set_the_p99() {
  // 2 500 samples in arrival order: two windows of 1 000 and 1 500 (a short
  // tail joins the window before it).  A burst of 30 slow samples lands in
  // the first window only.
  pb::Samples s;
  for (int i = 0; i < 2500; ++i) s.add(i >= 100 && i < 130 ? 500.0 : 1.0);
  expect(s.percentile(0.99) == 500.0, "the burst owns the pooled p99");
  const std::vector<double> w = s.window_percentiles(0.99, pb::kP99Window);
  expect(w.size() == 2 && w[0] == 500.0 && w[1] == 1.0,
         "per-window p99s, the tail joined to the last window");
  // 1 000 more samples make a third window: p99s 500, 1 and 1.
  for (int i = 0; i < 1000; ++i) s.add(1.0);
  pb::Result r;
  r.set_percentiles("ack", s, "us");
  expect(r.report["ack_p99_us"].value == 1.0, "the reported p99 is the median window's");
}

}  // namespace

int main() {
  generator_is_deterministic();
  checker_rejects_one_flipped_bit();
  checker_rejects_a_dropped_acked_point();
  one_burst_cannot_set_the_p99();
  std::printf("%s (%d failures)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
