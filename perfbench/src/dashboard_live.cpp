// dashboard_live: panels refresh while telemetry streams in.
//
// Rounds of: set up (preload a dense per-host history and a
// high-cardinality process-level measurement, compact) → for a third of
// --seconds, one open-loop writer appends both measurements in real time
// (one data tick per sample period of wall time) while two closed-loop
// viewers render the same five-panel dashboard through one QueryEngine,
// with windows ending at the writer's clock → checks → restart: restore the
// recorded process-level session with TimeSeriesDb::load_from_file.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "check.hpp"
#include "layers.hpp"
#include "query/engine.hpp"
#include "query/plan.hpp"
#include "trace.hpp"
#include "util/task_pool.hpp"

namespace pb {

namespace {

namespace tsdb = pmove::tsdb;
namespace query = pmove::query;

constexpr int kRounds = 3;
constexpr int kViewers = 2;
constexpr std::size_t kPreloadBatch = 8192;
/// Writer schedule: one data tick (one row per host plus batch_rows
/// processes, one dense step of data time) every dense step of wall time,
/// so data time runs at real time.  Every host's agent sends its own
/// single-row batch and the processes arrive in kProcBatches batches, each
/// due at its row's place in the tick, so writes are spread evenly.  After
/// a tick's last write the writer's clock advances to the tick's end, and
/// both viewers render the dashboard once for the new clock.
constexpr std::size_t kProcBatches = 8;
constexpr int kRestores = 5;  ///< session restores per round
constexpr std::size_t kCheckSample = 100;  ///< panel answers re-run per round

/// The fixed dashboard, windows ending at `now`.
std::vector<PanelQuery> dashboard(const Scale& sc, const std::string& host,
                                  TimeNs now) {
  const Stream& d = sc.dense;
  const Stream& p = sc.procs;
  const TimeNs s = pmove::kNsPerSec;
  using A = query::Aggregate;
  std::vector<PanelQuery> out;
  out.push_back({"focus", query::QueryBuilder(d.measurement)
                              .select(d.fields[0])
                              .where_tag(d.tag_key, host)
                              .since(now - 30 * s)
                              .until(now)
                              .build()});
  out.push_back({"subtree", query::QueryBuilder(d.measurement)
                                .select(A::kMean, d.fields[1])
                                .where_tag(d.tag_key, host)
                                .since(now - 300 * s)
                                .until(now)
                                .group_by_time(s)
                                .build()});
  out.push_back({"level", query::QueryBuilder(d.measurement)
                              .select(A::kMean, d.fields[2])
                              .since(now - 120 * s)
                              .until(now)
                              .group_by_time(5 * s)
                              .build()});
  // One sampling period of the processes: the latest sample of every
  // process.  The two viewers' renders then take less than half of each
  // tick, so that on a slower host most writes still do not wait behind a
  // render (see README).
  out.push_back({"high-card", query::QueryBuilder(p.measurement)
                                  .select(A::kMean, p.fields[0])
                                  .select(A::kSum, p.fields[2])
                                  .select(A::kStddev, p.fields[1])
                                  .since(now - p.step_ns + 1)
                                  .until(now)
                                  .build()});
  out.push_back({"min-max-count", query::QueryBuilder(d.measurement)
                                      .select(A::kMin, d.fields[3])
                                      .select(A::kMax, d.fields[3])
                                      .select(A::kCount, d.fields[3])
                                      .where_tag(d.tag_key, host)
                                      .since(now - 120 * s)
                                      .until(now)
                                      .build()});
  return out;
}

struct Write {
  std::chrono::steady_clock::duration due;  ///< from the phase start
  std::vector<tsdb::Point> batch;
  TimeNs clock = 0;  ///< writer clock to publish after it, 0 = none
};

struct Answer {
  query::Query query;
  tsdb::QueryResult result;
};

}  // namespace

Result run_dashboard_live(const Options& opt) {
  Result r;
  const Scale sc = Scale::make(opt.scale);
  const Generator dense(opt.seed, sc.dense);
  const Generator procs(opt.seed, sc.procs);
  const std::string focus_host =
      dense.series_tag(static_cast<std::size_t>(opt.seed % sc.dense.series));
  const std::size_t dense_rows = sc.dense.batch_rows;
  const std::size_t procs_rows = sc.procs.batch_rows;
  const double round_seconds = opt.seconds / kRounds;
  const auto tick = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::nanoseconds(sc.dense.step_ns));
  const std::size_t ticks = static_cast<std::size_t>(
      round_seconds / std::chrono::duration<double>(tick).count());
  const std::uint64_t history_ticks = sc.dense_history_rows / sc.dense.series;
  const TimeNs first_now = dense.tick_time(history_ticks) - 1;

  Samples acks, qlat, late;
  std::map<std::string, Samples> panels;
  std::vector<double> setups, rates, achieved, recovers, resident, compacts;
  std::vector<double> setup_cpu;
  CpuCost write_cpu, recover_cpu, query_cpu;
  double query_busy_s = 0;  ///< viewer time inside QueryEngine::run
  std::size_t queries = 0;
  std::uint64_t cache_hits = 0, engine_queries = 0;
  StoreTotals store;
  Digest want_dense, want_procs;
  std::unique_ptr<tsdb::TimeSeriesDb> db;
  TimeNs last_now = first_now;
  const std::size_t dense_total = sc.dense_history_rows + ticks * dense_rows;
  const std::size_t procs_total = sc.procs_history_rows + ticks * procs_rows;

  // The recorded process-level session: the rows every round writes.
  const std::string dir = fresh_dir(opt.work_dir, "dashboard_live");
  const std::string path = dir + "/proc-session.lp";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    for (std::size_t first = 0; first < procs_total; first += kPreloadBatch) {
      const std::string text =
          procs.lines(first, std::min(kPreloadBatch, procs_total - first));
      std::fwrite(text.data(), 1, text.size(), f);
    }
    std::fclose(f);
  }

  for (int round = 0; round < kRounds; ++round) {
    // ---- set up: preload both histories, compact.
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    db = std::make_unique<tsdb::TimeSeriesDb>();
    // The preload is where the dense history's runs seal, fold and pack,
    // so the store counters cover set-up and live phase alike.
    const StoreTotals st0 = store_totals({db.get()});
    for (const auto& [gen, rows] :
         {std::pair{&dense, sc.dense_history_rows},
          std::pair{&procs, sc.procs_history_rows}}) {
      for (std::size_t first = 0; first < rows; first += kPreloadBatch) {
        auto batch = gen->points(first, std::min(kPreloadBatch, rows - first));
        if (auto s = db->write_batch(std::move(batch)); !s.is_ok()) {
          r.fail("preload: " + s.to_string());
          return r;
        }
      }
    }
    const double tc = now_s();
    {
      trace::Span span("tsdb.compact");
      db->compact();
    }
    compacts.push_back((now_s() - tc) * 1e3);
    query::QueryEngine qe(*db);
    // The writer's batches, rendered ahead so generation is not timed.
    std::vector<Write> writes;
    const std::size_t procs_per = procs_rows / kProcBatches;
    writes.reserve(ticks * (dense_rows + kProcBatches));
    for (std::size_t j = 0; j < ticks; ++j) {
      const std::size_t dense_first = sc.dense_history_rows + j * dense_rows;
      const std::size_t procs_first = sc.procs_history_rows + j * procs_rows;
      auto due = [&](std::size_t i, std::size_t n) {
        return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            j * tick + i * tick / n);
      };
      const std::size_t first_write = writes.size();
      for (std::size_t h = 0; h < dense_rows; ++h) {
        writes.push_back({due(h, dense_rows), dense.points(dense_first + h, 1), 0});
      }
      for (std::size_t m = 0; m < kProcBatches; ++m) {
        writes.push_back({due(m, kProcBatches),
                          procs.points(procs_first + m * procs_per, procs_per), 0});
      }
      std::stable_sort(writes.begin() + static_cast<std::ptrdiff_t>(first_write),
                       writes.end(), [](const Write& a, const Write& b) {
                         return a.due < b.due;
                       });
      // Both measurements' rows of tick j are stamped inside its data step,
      // so after its last write every row stamped before the step's end is
      // stored; the viewers may then render up to that instant.
      writes.back().clock = dense.tick_time(history_ticks + j + 1) - 1;
    }
    setups.push_back(now_s() - t0);
    setup_cpu.push_back(process_cpu_s() - c0);

    // ---- live phase.
    // The writer's clock; viewers sleep until it moves.
    std::mutex clock_mutex;
    std::condition_variable clock_moved;
    TimeNs clock = first_now;
    bool stop = false;
    std::vector<Samples> vlat(kViewers);
    std::vector<std::map<std::string, Samples>> panel_lat(kViewers);
    std::vector<std::vector<Answer>> answers(kViewers);
    std::size_t written = 0;
    double write_busy_s = 0;  ///< writer time inside write_batch
    double write_busy_cpu = 0;  ///< writer CPU inside write_batch
    double writer_cpu = 0;      ///< writer thread CPU, all of it
    std::vector<double> view_busy_s(kViewers, 0.0);
    std::atomic<std::uint64_t> failed{0};
    const auto start = std::chrono::steady_clock::now();
    const double live_cpu0 = process_cpu_s();
    std::thread writer([&] {
      for (Write& w : writes) {
        const auto due = start + w.due;
        std::this_thread::sleep_until(due);
        late.add(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - due)
                     .count());
        const std::size_t n = w.batch.size();
        trace::begin_request();
        pmove::Status s = pmove::Status::ok();
        const double tw = now_s();
        const double cw = thread_cpu_s();
        {
          trace::Span span("tsdb.write_batch");
          s = db->write_batch(std::move(w.batch));
        }
        write_busy_s += now_s() - tw;
        write_busy_cpu += thread_cpu_s() - cw;
        acks.add(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - due)
                     .count());
        if (s.is_ok()) {
          written += n;
        } else {
          failed += 1;
        }
        if (w.clock != 0) {
          std::lock_guard<std::mutex> lock(clock_mutex);
          clock = w.clock;
          clock_moved.notify_all();
        }
      }
      std::lock_guard<std::mutex> lock(clock_mutex);
      stop = true;
      clock_moved.notify_all();
      writer_cpu = thread_cpu_s();
    });
    std::vector<std::thread> viewers;
    for (int v = 0; v < kViewers; ++v) {
      viewers.emplace_back([&, v] {
        auto& mine = answers[static_cast<std::size_t>(v)];
        TimeNs rendered = 0;
        for (;;) {
          // Each viewer renders the newest clock, at most once per value.
          TimeNs now = 0;
          {
            std::unique_lock<std::mutex> lock(clock_mutex);
            clock_moved.wait(lock, [&] { return stop || clock != rendered; });
            if (stop) return;
            now = clock;
          }
          rendered = now;
          // The second viewer walks the panels in reverse, so the two
          // heavy panels of both viewers do not always coincide.
          std::vector<PanelQuery> panels = dashboard(sc, focus_host, now);
          if (v % 2 == 1) std::reverse(panels.begin(), panels.end());
          for (PanelQuery& pq : panels) {
            trace::begin_request();
            const double t = now_s();
            pmove::Expected<tsdb::QueryResult> res =
                pmove::Status::internal("not run");
            {
              trace::Span span("query.engine_run");
              res = qe.run(pq.query);
            }
            const double ms = (now_s() - t) * 1e3;
            view_busy_s[static_cast<std::size_t>(v)] += ms / 1e3;
            vlat[static_cast<std::size_t>(v)].add(ms);
            panel_lat[static_cast<std::size_t>(v)][pq.panel].add(ms);
            if (!res) {
              failed += 1;
              continue;
            }
            mine.push_back({std::move(pq.query), std::move(res.value())});
          }
        }
      });
    }
    writer.join();
    for (auto& t : viewers) t.join();
    const double live_cpu = process_cpu_s() - live_cpu0;
    const double phase_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    last_now = clock;
    rates.push_back(static_cast<double>(written) / write_busy_s);
    achieved.push_back(static_cast<double>(written) / phase_s);
    for (auto& per_viewer : panel_lat) {
      for (auto& [panel, samples] : per_viewer) panels[panel].append(samples);
    }
    std::size_t round_queries = 0;
    for (const Samples& s : vlat) {
      qlat.append(s);
      round_queries += s.size();
    }
    queries += round_queries;
    write_cpu.add(write_busy_cpu, static_cast<double>(written));
    query_cpu.add(live_cpu - writer_cpu, static_cast<double>(round_queries));
    for (double b : view_busy_s) query_busy_s += b;
    const query::EngineStats es = qe.stats();
    cache_hits += es.cache_hits;
    engine_queries += es.queries;
    const StoreTotals st1 = store_totals({db.get()});
    store.add_phase(st0, st1);
    resident.push_back(static_cast<double>(st1.resident_bytes) /
                       static_cast<double>(std::max<std::size_t>(1, st1.points)));

    // ---- checks (untimed).
    const double tk = now_s();
    r.attempted += writes.size() + round_queries;
    for (std::uint64_t i = 0; i < failed.load(); ++i) r.fail("write or query failed");
    r.attempted += 2;
    if (round == 0) {  // every round writes the same rows
      want_dense = expected_digest(dense, 0, dense_total);
      want_procs = expected_digest(procs, 0, procs_total);
    }
    if (!(stored_digest(*db, sc.dense) == want_dense)) {
      r.fail("dense measurement does not hold exactly the written points");
    }
    if (!(stored_digest(*db, sc.procs) == want_procs)) {
      r.fail("process measurement does not hold exactly the written points");
    }
    // A sample of panel answers against uncached query::run on one thread.
    // Windows end at a published clock and later writes are newer, so an
    // answer stays valid after the phase.
    pmove::util::TaskPool serial(1);
    query::ExecOptions one_thread;
    one_thread.pool = &serial;
    std::string why;
    for (const auto& mine : answers) {
      const std::size_t step = std::max<std::size_t>(1, mine.size() / (kCheckSample / kViewers));
      for (std::size_t i = 0; i < mine.size(); i += step) {
        r.attempted += 1;
        auto want = query::run(*db, mine[i].query, one_thread);
        if (!want || !same_result(want.value(), mine[i].result, &why)) {
          r.fail("panel " + mine[i].query.to_string() + ": " + why);
        }
      }
    }

    const double checks_s = now_s() - tk;
    // ---- restart: restore the recorded process-level session.
    const double tw = now_s();
    // A DB kept from one round to the next slowed the next round's preload
    // by up to half, so each round restores into its own.
    tsdb::TimeSeriesDb restored;
    for (int k = 0; k < kRestores; ++k) {
      restored.clear();
      const double tr = now_s();
      const double cr = process_cpu_s();
      pmove::Status loaded = pmove::Status::ok();
      {
        trace::begin_request();
        trace::Span span("tsdb.load_from_file");
        loaded = restored.load_from_file(path);
      }
      recovers.push_back(static_cast<double>(restored.point_count()) /
                         (now_s() - tr));
      recover_cpu.add(process_cpu_s() - cr,
                      static_cast<double>(restored.point_count()));
      r.attempted += 1;
      if (!loaded.is_ok() || restored.point_count() != procs_total) {
        r.fail("session restore: " + loaded.to_string());
        return r;
      }
    }
    const query::Query hc = dashboard(sc, focus_host, last_now)[3].query;
    auto live = query::run(*db, hc);
    auto back = query::run(restored, hc);
    r.attempted += 1;
    if (!live || !back || !same_result(live.value(), back.value(), &why)) {
      r.fail("restored session answers the high-card panel differently: " +
             why);
    }
    char phases[160];
    std::snprintf(phases, sizeof phases,
                  "round %d: set-up %.2f s, live %.2f s, checks %.2f s, "
                  "restart %.2f s",
                  round, setups.back(), phase_s, checks_s, now_s() - tw);
    r.info.push_back(phases);
  }

  remove_dir(dir);

  const std::string rounds = std::to_string(setups.size()) + " rounds";
  r.set("setup_s", median(setup_cpu), "s", rounds);
  r.set("write_cpu_us_per_point", write_cpu.us_per_op(), "us",
        rounds + ", writer CPU inside write_batch");
  r.set_report("recover_cpu_us_per_point", recover_cpu.us_per_op(), "us",
               std::to_string(recovers.size()) + " process-level session restores");
  r.set_report("query_cpu_us_per_query", query_cpu.us_per_op(), "us",
               rounds + ", live-phase CPU but the writer's / panels rendered");
  r.set("resident_bytes_per_point", median(resident), "bytes");
  r.set_report("setup_wall_s", median(setups), "s", rounds);
  r.set_report("ingest_points_per_s", median(rates), "1/s",
               "points stored / writer time inside write_batch");
  r.set_percentiles("ingest_ack", acks, "us");
  r.set_report("recover_points_per_s", median(recovers), "1/s",
               std::to_string(recovers.size()) + " process-level session restores");
  r.set_report("query_per_s",
               static_cast<double>(queries) * kViewers / query_busy_s, "1/s",
               std::to_string(kViewers) + " viewers: queries / (viewer time "
               "inside QueryEngine::run / " + std::to_string(kViewers) + ")");
  r.set_percentiles("query", qlat, "ms");
  char line[256];
  std::snprintf(line, sizeof line,
                "writer lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms over "
                "%zu writes; one data tick per %.0f ms; achieved %.1f "
                "points/s of %.1f scheduled",
                late.median(), late.percentile(0.99), late.percentile(1.0),
                late.size(), std::chrono::duration<double, std::milli>(tick).count(),
                median(achieved),
                static_cast<double>(dense_rows + procs_rows) /
                    std::chrono::duration<double>(tick).count());
  r.info.push_back(line);
  for (const auto& [panel, samples] : panels) {
    std::snprintf(line, sizeof line, "panel %-14s p50 %.3f ms  p99 %.3f ms  n=%zu",
                  panel.c_str(), samples.median(), samples.percentile(0.99),
                  samples.size());
    r.info.push_back(line);
  }
  r.info.push_back(
      "data: seed " + std::to_string(opt.seed) + ", dense " +
      std::to_string(sc.dense.series) + " hosts x " +
      std::to_string(sc.dense.fields.size()) + " fields, " +
      std::to_string(sc.dense_history_rows) + " history rows; processes " +
      std::to_string(sc.procs.series) + " series x " +
      std::to_string(sc.procs.fields.size()) + " fields, " +
      std::to_string(sc.procs_history_rows) + " history rows; writer " +
      std::to_string(dense_rows + procs_rows) + " points per tick, " +
      std::to_string(ticks) + " ticks per round");

  if (opt.trace) {
    r.set_layer("ingest.blocked_submit_ratio", 0, "ratio");
    r.set_layer("ingest.max_queue_depth", 0, "count");
    r.set_layer("tsdb.compact_ms", median(compacts), "ms");
    set_store_layer(store, r);
    r.set_layer("query.cache_hit_ratio",
                static_cast<double>(cache_hits) /
                    static_cast<double>(std::max<std::uint64_t>(1, engine_queries)),
                "ratio");
    r.set_layer("fleet.pushdown_ratio", 0, "ratio");
    r.set_layer("fleet.node_imbalance", 1, "ratio");

    // Probes over the writer's own batches and the final dashboards.
    std::vector<std::string> texts;
    for (std::size_t j = 0; j < ticks; ++j) {
      texts.push_back(dense.lines(sc.dense_history_rows + j * dense_rows, dense_rows) +
                      procs.lines(sc.procs_history_rows + j * procs_rows, procs_rows));
    }
    ProbeInput in;
    for (const std::string& t : texts) in.batches.push_back(&t);
    in.dbs = {db.get()};
    for (std::size_t k = 0; k < 10; ++k) {
      for (PanelQuery& pq :
           dashboard(sc, focus_host, last_now - static_cast<TimeNs>(k) * sc.dense.step_ns)) {
        in.queries.push_back(std::move(pq));
      }
    }
    in.wal_dir = opt.work_dir + "/probe_wal";
    probe_layers(in, r);
  }
  return r;
}

}  // namespace pb
