// Ablation: parallel query execution — inverted tag index + morsel-driven
// evaluator on the shared worker pool.
//
// Before this, every query evaluated on the calling thread and tag filters
// probed each of the measurement's series linearly.  Now multi-filter
// queries intersect per-(tag key, value) posting lists, matching series
// fold in parallel morsels on the shared TaskPool, and the partials merge
// in serial-equivalent order — so the answer is bit-for-bit identical to
// PMOVE_QUERY_THREADS=1 at any thread count.  This ablation sweeps thread
// count x series cardinality over the four parallelized query shapes,
// bit-compares every cell against its single-thread baseline, checks the
// index's probe accounting, and emits BENCH_query.json next to the binary.
// The four shapes: ungrouped partial-exact aggregates (min/max/count),
// grouped mean, inverted-index tag-filtered count, and bounded raw scans.
//
// The speedup gate self-scales to the machine (judged at the largest
// configured thread count the hardware can run; skipped on one core) —
// parity and index gates always apply.
//
// Usage: ablation_query [total_points] [repeats]
//        (default 600k/3; series sweep 1k/10k/100k, threads 1/2/4/8)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "query/plan.hpp"
#include "query/query.hpp"
#include "tsdb/db.hpp"
#include "tsdb/point.hpp"
#include "util/task_pool.hpp"

namespace pmove::query {

namespace {

struct QueryBenchConfig {
  /// Series cardinalities to sweep (distinct tag sets in the measurement).
  std::vector<std::size_t> series_counts = {1'000, 10'000, 100'000};
  /// Evaluator thread counts to sweep (TaskPool sizes; 1 = serial).
  std::vector<std::size_t> threads = {1, 2, 4, 8};
  /// Total points per dataset; points per series = total / series count.
  std::size_t total_points = 600'000;
  int repeats = 3;  ///< timed repetitions per query, best-of
};

/// One (series count, thread count) sweep cell.  Throughputs are million
/// points covered per second (the full dataset for scans; the filtered
/// query reports queries per second — its win is NOT touching the
/// dataset).
struct QueryBenchCell {
  std::size_t series = 0;
  std::size_t threads = 0;
  double aggregate_mps = 0.0;  ///< min/max/count over every row
  double grouped_mps = 0.0;    ///< GROUP BY time() mean
  double raw_mps = 0.0;        ///< bounded raw scan (~10% of the range)
  double filtered_qps = 0.0;   ///< single-series tag filter, via the index
  /// Every query shape (plus an all-8-aggregate probe) matched this
  /// dataset's single-thread results bit-for-bit.
  bool parity_ok = false;
};

struct QueryBenchResult {
  QueryBenchConfig config;
  std::vector<QueryBenchCell> cells;
  std::size_t hardware_threads = 0;

  bool parity_ok = true;  ///< every cell matched its 1-thread baseline
  /// Inverted index engaged on every tag-filtered query and probed no more
  /// postings than the matching series count.
  bool index_ok = true;

  // Speedup gate, scaled to the machine: gate_threads is the largest
  // configured thread count that does not oversubscribe the hardware, and
  // the floor grows with it (1 thread usable -> the gate is skipped).
  std::size_t gate_threads = 0;
  double gate_floor = 0.0;
  /// Aggregate-scan speedup at gate_threads vs 1 thread on the largest
  /// series count.
  double aggregate_speedup = 0.0;
  bool speedup_checked = false;
  bool speedup_ok = true;
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool same_result(const tsdb::QueryResult& a, const tsdb::QueryResult& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      const double x = a.rows[r][c];
      const double y = b.rows[r][c];
      // Bit-for-bit, with NaN == NaN.
      if (x != y && !(std::isnan(x) && std::isnan(y))) return false;
    }
  }
  return true;
}

/// Best-of-N timed runs of `fn`; returns million points per second over
/// `points` covered rows.
template <class Fn>
double best_mps(std::size_t points, int repeats, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    fn();
    const double elapsed = seconds_since(start);
    if (elapsed <= 0.0) continue;
    best = std::max(best, static_cast<double>(points) / elapsed / 1e6);
  }
  return best;
}

constexpr TimeNs kCadence = 1'000'000;  // 1 ms between a series' points

/// One measurement, `series` tag sets: a broad tag (shard, 16 values — the
/// posting lists worth intersecting) and a unique tag (uniq — the
/// single-series lookups the index answers without touching the rest).
/// Points interleave across series so sealed runs look like real arrival,
/// then compact() packs everything into sorted base runs.
void build_dataset(tsdb::TimeSeriesDb& db, std::size_t series,
                   std::size_t pts) {
  constexpr std::size_t kBatch = 4096;
  std::vector<tsdb::Point> batch;
  batch.reserve(kBatch);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t j = 0; j < pts; ++j) {
    for (std::size_t i = 0; i < series; ++i) {
      tsdb::Point p;
      p.measurement = "bench_q";
      p.tags["shard"] = "s" + std::to_string(i % 16);
      p.tags["uniq"] = "u" + std::to_string(i);
      p.time = static_cast<TimeNs>(j) * kCadence;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      p.fields["f0"] = static_cast<double>(state >> 11) / 9.0e18;
      p.fields["f1"] = static_cast<double>((state >> 17) & 0xffff);
      batch.push_back(std::move(p));
      if (batch.size() == kBatch) {
        (void)db.write_batch(std::move(batch));
        batch.clear();
        batch.reserve(kBatch);
      }
    }
  }
  if (!batch.empty()) (void)db.write_batch(std::move(batch));
  db.compact();
}

Query parse_or_die(const std::string& text) {
  auto parsed = Query::parse(text);
  return parsed.value();  // bench-internal strings: always valid
}

QueryBenchResult run_query_bench(const QueryBenchConfig& config) {
  QueryBenchResult r;
  r.config = config;
  const unsigned hw = std::thread::hardware_concurrency();
  r.hardware_threads = hw == 0 ? 1 : hw;

  // Speedup gate scaled to the machine: judge at the largest configured
  // thread count the hardware can actually run, with a floor that grows
  // with it.  One usable thread means there is nothing to judge.
  for (const std::size_t t : config.threads) {
    if (t <= r.hardware_threads && t > r.gate_threads) r.gate_threads = t;
  }
  if (r.gate_threads >= 8) {
    r.gate_floor = 3.0;
  } else if (r.gate_threads >= 4) {
    r.gate_floor = 1.6;
  } else if (r.gate_threads >= 2) {
    r.gate_floor = 1.15;
  }
  const std::size_t largest_series =
      config.series_counts.empty()
          ? 0
          : *std::max_element(config.series_counts.begin(),
                              config.series_counts.end());

  for (const std::size_t series : config.series_counts) {
    if (series == 0) continue;
    const std::size_t pts =
        std::max<std::size_t>(2, config.total_points / series);
    const std::size_t total = series * pts;
    tsdb::TimeSeriesDb db;
    build_dataset(db, series, pts);

    const TimeNs span = static_cast<TimeNs>(pts - 1) * kCadence;
    const TimeNs interval = std::max<TimeNs>(1, span / 64);
    const Query q_agg = parse_or_die(
        R"(SELECT min("f0"), max("f0"), count("f0") FROM "bench_q")");
    const Query q_all8 = parse_or_die(
        R"(SELECT count("f0"), min("f0"), max("f0"), first("f0"), )"
        R"(last("f0"), sum("f0"), mean("f0"), stddev("f0") FROM "bench_q")");
    const Query q_grouped =
        parse_or_die(R"(SELECT mean("f0") FROM "bench_q" GROUP BY time()" +
                     std::to_string(interval) + "ns)");
    const Query q_raw =
        parse_or_die(R"(SELECT "f0" FROM "bench_q" WHERE time >= 0 )" +
                     ("AND time <= " + std::to_string(span / 10)));
    const auto q_filtered = [](std::size_t k) {
      return parse_or_die(
          R"(SELECT count("f0") FROM "bench_q" WHERE uniq="u)" +
          std::to_string(k) + "\"");
    };

    // Single-thread baselines: the parity reference for every cell.
    util::TaskPool serial(1);
    ExecOptions serial_opts{.pool = &serial};
    db.set_scan_pool(&serial);
    const auto base_agg = run(db, q_agg, serial_opts);
    const auto base_all8 = run(db, q_all8, serial_opts);
    const auto base_grouped = run(db, q_grouped, serial_opts);
    const auto base_raw = run(db, q_raw, serial_opts);
    const auto base_filtered = run(db, q_filtered(series / 2), serial_opts);
    double base_agg_mps = best_mps(total, config.repeats,
                                   [&] { (void)run(db, q_agg, serial_opts); });
    double gate_agg_mps = 0.0;

    for (const std::size_t threads : config.threads) {
      if (threads == 0) continue;
      util::TaskPool pool(threads);
      ExecOptions opts{.pool = &pool};
      db.set_scan_pool(&pool);  // parallel view build rides the same sweep

      QueryBenchCell cell;
      cell.series = series;
      cell.threads = threads;

      cell.parity_ok =
          base_agg && base_all8 && base_grouped && base_raw && base_filtered;
      const auto check = [&](const Query& q,
                             const Expected<tsdb::QueryResult>& base) {
        const auto got = run(db, q, opts);
        if (!got || !base || !same_result(got.value(), base.value())) {
          cell.parity_ok = false;
        }
      };
      check(q_agg, base_agg);
      check(q_all8, base_all8);
      check(q_grouped, base_grouped);
      check(q_raw, base_raw);
      check(q_filtered(series / 2), base_filtered);

      // Index accounting: one unique-tag query must engage the index and
      // probe no more postings than its matching series (exactly one).
      const tsdb::TsdbStats before = db.stats();
      (void)run(db, q_filtered(series - 1), opts);
      const tsdb::TsdbStats after = db.stats();
      if (after.index_scans <= before.index_scans ||
          after.index_probes - before.index_probes > 1) {
        r.index_ok = false;
      }

      cell.aggregate_mps =
          threads == 1 ? base_agg_mps : best_mps(total, config.repeats, [&] {
            (void)run(db, q_agg, opts);
          });
      cell.grouped_mps = best_mps(total, config.repeats,
                                  [&] { (void)run(db, q_grouped, opts); });
      cell.raw_mps = best_mps(total / 10 + series, config.repeats,
                              [&] { (void)run(db, q_raw, opts); });
      constexpr std::size_t kFilteredPerRep = 32;
      cell.filtered_qps =
          best_mps(kFilteredPerRep, config.repeats, [&] {
            for (std::size_t j = 0; j < kFilteredPerRep; ++j) {
              (void)run(db, q_filtered((j * 127) % series), opts);
            }
          }) *
          1e6;

      if (!cell.parity_ok) r.parity_ok = false;
      if (series == largest_series && threads == r.gate_threads) {
        gate_agg_mps = cell.aggregate_mps;
      }
      if (threads == 1) base_agg_mps = cell.aggregate_mps;
      r.cells.push_back(cell);
    }
    db.set_scan_pool(nullptr);

    if (series == largest_series && r.gate_threads >= 2 &&
        base_agg_mps > 0.0) {
      r.aggregate_speedup = gate_agg_mps / base_agg_mps;
      r.speedup_checked = true;
      r.speedup_ok = r.aggregate_speedup >= r.gate_floor;
    }
  }
  return r;
}

std::string to_json(const QueryBenchResult& r) {
  char buffer[1024];
  std::string json = "{\n  \"cells\": [\n";
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const QueryBenchCell& c = r.cells[i];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"series\": %zu, \"threads\": %zu, "
                  "\"aggregate_mps\": %.3f, \"grouped_mps\": %.3f, "
                  "\"raw_mps\": %.3f, \"filtered_qps\": %.1f, "
                  "\"parity_ok\": %s}%s\n",
                  c.series, c.threads, c.aggregate_mps, c.grouped_mps,
                  c.raw_mps, c.filtered_qps, c.parity_ok ? "true" : "false",
                  i + 1 < r.cells.size() ? "," : "");
    json += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "  ],\n"
                "  \"total_points\": %zu,\n"
                "  \"hardware_threads\": %zu,\n"
                "  \"gate_threads\": %zu,\n"
                "  \"gate_floor\": %.2f,\n"
                "  \"aggregate_speedup\": %.2f,\n"
                "  \"speedup_checked\": %s,\n"
                "  \"speedup_ok\": %s,\n"
                "  \"parity_ok\": %s,\n"
                "  \"index_ok\": %s\n"
                "}\n",
                r.config.total_points, r.hardware_threads, r.gate_threads,
                r.gate_floor, r.aggregate_speedup,
                r.speedup_checked ? "true" : "false",
                r.speedup_ok ? "true" : "false",
                r.parity_ok ? "true" : "false",
                r.index_ok ? "true" : "false");
  json += buffer;
  return json;
}

void print_report(const QueryBenchResult& r) {
  std::printf("parallel query execution: thread x cardinality sweep\n");
  std::printf("(%zu total points, best of %d runs, %zu hardware threads)\n\n",
              r.config.total_points, r.config.repeats, r.hardware_threads);
  std::printf("%8s %8s %12s %12s %12s %14s %7s\n", "series", "threads",
              "agg Mp/s", "group Mp/s", "raw Mp/s", "filtered q/s", "parity");
  for (const QueryBenchCell& c : r.cells) {
    std::printf("%8zu %8zu %12.2f %12.2f %12.2f %14.0f %7s\n", c.series,
                c.threads, c.aggregate_mps, c.grouped_mps, c.raw_mps,
                c.filtered_qps, c.parity_ok ? "ok" : "FAIL");
  }
  std::printf("\nparity: %s\n", r.parity_ok
                                    ? "every cell bit-for-bit == 1 thread"
                                    : "MISMATCH");
  std::printf("inverted index: %s\n",
              r.index_ok ? "engaged, probes <= matching series"
                         : "PROBE/SELECTIVITY FAIL");
  if (r.speedup_checked) {
    std::printf("aggregate speedup at %zu threads: %.2fx (floor %.2fx): %s\n",
                r.gate_threads, r.aggregate_speedup, r.gate_floor,
                r.speedup_ok ? "ok" : "FAIL");
  } else {
    std::printf(
        "aggregate speedup: skipped (%zu hardware thread(s) usable)\n",
        r.hardware_threads);
  }
}

}  // namespace

}  // namespace pmove::query

int main(int argc, char** argv) {
  pmove::query::QueryBenchConfig config;
  if (argc > 1) {
    config.total_points = static_cast<std::size_t>(std::atoll(argv[1]));
  }
  if (argc > 2) config.repeats = std::atoi(argv[2]);
  if (config.total_points == 0 || config.repeats <= 0) {
    std::fprintf(stderr, "usage: ablation_query [total_points] [repeats]\n");
    return 2;
  }
  std::printf("ABLATION: parallel query execution vs single-thread\n\n");
  const auto result = pmove::query::run_query_bench(config);
  pmove::query::print_report(result);

  const std::string json = pmove::query::to_json(result);
  if (std::FILE* out = std::fopen("BENCH_query.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_query.json\n");
  } else {
    std::fprintf(stderr, "cannot write BENCH_query.json\n");
    return 1;
  }
  std::printf(
      "\nTakeaway: the inverted tag index turns tag-filtered queries from\n"
      "a linear probe of every series into a posting-list intersection\n"
      "(probes bounded by the smallest list), and the morsel-driven\n"
      "evaluator spreads the fold work across the shared pool without\n"
      "moving a single result bit — count/min/max/first/last merge as\n"
      "order-exact partials, sum-based folds keep their serial order per\n"
      "field.  Dashboards get the speedup; parity tests keep the proof.\n");

  bool ok = true;
  if (!result.parity_ok) {
    std::fprintf(stderr,
                 "GATE FAIL: parallel result != single-thread baseline\n");
    ok = false;
  }
  if (!result.index_ok) {
    std::fprintf(stderr,
                 "GATE FAIL: index probes exceeded matching series (or the "
                 "index never engaged)\n");
    ok = false;
  }
  if (result.speedup_checked && !result.speedup_ok) {
    std::fprintf(stderr,
                 "GATE FAIL: aggregate speedup %.2fx < %.2fx at %zu threads\n",
                 result.aggregate_speedup, result.gate_floor,
                 result.gate_threads);
    ok = false;
  }
  return ok ? 0 : 1;
}
