// ingest_wal: the write path and restart.
//
// Rounds of: set up (render the round's batches, open a WAL-backed engine
// attached to one caller-owned TimeSeriesDb, the daemon's shape) → two
// closed-loop sampler agents submit line-protocol batches → flush → close
// → time open() of a fresh engine and DB over the same WAL → the first
// dashboards after restart (one focus query per host) → checks.  Rounds
// repeat until the measured time reaches --seconds; every metric is the
// median over rounds, or the percentile over all rounds' samples.
#include <atomic>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "check.hpp"
#include "ingest/engine.hpp"
#include "layers.hpp"
#include "query/engine.hpp"
#include "query/plan.hpp"
#include "trace.hpp"

namespace pb {

namespace {

namespace tsdb = pmove::tsdb;
namespace query = pmove::query;
using pmove::ingest::IngestEngine;
using pmove::ingest::IngestOptions;

constexpr std::size_t kRoundRows = 120'000;
constexpr int kProducers = 2;
constexpr int kShards = 2;
constexpr unsigned kRenderThreads = 4;  ///< set-up only; one per core
constexpr std::size_t kFocusTicks = 30;  // focus panel window
/// Passes over the focus queries after each restart.  One pass lasts a few
/// milliseconds, so several spread the latency samples over enough time
/// that one scheduling hiccup cannot own the p99.
constexpr int kFocusPasses = 8;

IngestOptions engine_options(const std::string& dir) {
  IngestOptions o;
  o.wal_dir = dir;
  o.wal_sync_each_append = false;
  o.policy = pmove::ingest::BackpressurePolicy::kBlock;
  // Two shard workers beside the two producers: one busy thread per core
  // on a 4-core host.  With the default four shards the ack median split
  // run by run into two modes, set by how the scheduler placed six threads.
  o.shard_count = kShards;
  return o;
}

/// The post-restart aggregate set: one focus query per host over the
/// round's last kFocusTicks ticks, plus whole-measurement aggregates
/// (checked, not timed).
std::vector<query::Query> focus_queries(const Generator& gen,
                                        std::uint64_t last_tick) {
  const Stream& s = gen.stream();
  const TimeNs lo = gen.tick_time(last_tick + 1 - kFocusTicks);
  const TimeNs hi = gen.tick_time(last_tick + 1) - 1;
  std::vector<query::Query> out;
  out.reserve(s.series);
  for (std::size_t h = 0; h < s.series; ++h) {
    out.push_back(query::QueryBuilder(s.measurement)
                      .select(query::Aggregate::kMean,
                              s.fields[h % s.fields.size()])
                      .where_tag(s.tag_key, gen.series_tag(h))
                      .since(lo)
                      .until(hi)
                      .build());
  }
  return out;
}

std::vector<PanelQuery> checked_aggregates(const Generator& gen) {
  const Stream& s = gen.stream();
  std::vector<PanelQuery> out;
  for (query::Aggregate a :
       {query::Aggregate::kMean, query::Aggregate::kMin, query::Aggregate::kMax,
        query::Aggregate::kSum, query::Aggregate::kCount,
        query::Aggregate::kStddev, query::Aggregate::kFirst,
        query::Aggregate::kLast}) {
    out.push_back({"all-hosts " + std::string(query::to_string(a)),
                   query::QueryBuilder(s.measurement)
                       .select(a, s.fields[0])
                       .select(a, s.fields[s.fields.size() - 1])
                       .build()});
  }
  out.push_back({"all-hosts grouped mean",
                 query::QueryBuilder(s.measurement)
                     .select(query::Aggregate::kMean, s.fields[1])
                     .group_by_time(10 * s.step_ns)
                     .build()});
  return out;
}

}  // namespace

Result run_ingest_wal(const Options& opt) {
  Result r;
  const Scale sc = Scale::make(opt.scale);
  const Generator gen(opt.seed, sc.ingest);
  const std::size_t batch_rows = sc.ingest.batch_rows;
  const std::size_t batches_per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(kRoundRows) * opt.scale) /
             batch_rows);
  const std::size_t round_rows = batches_per_round * batch_rows;

  Samples acks, qlat;
  std::vector<double> setups, rates, recovers, resident, drains;
  std::vector<double> setup_cpu;
  CpuCost write_cpu, recover_cpu, query_cpu;
  double measured = 0, query_s = 0;
  std::size_t queries = 0;
  std::uint64_t blocked = 0, submitted = 0;
  std::size_t max_depth = 0;
  std::uint64_t cache_hits = 0, engine_queries = 0;
  // Seal/fold/pack work summed over the rounds' ingest phases; the byte
  // fields describe the last round's live DB.
  StoreTotals store;

  // Kept from the last round for the traced probes.
  std::vector<std::string> batches;
  std::unique_ptr<tsdb::TimeSeriesDb> recovered_db;

  for (std::size_t round = 0; round == 0 || measured < opt.seconds; ++round) {
    const std::uint64_t first = round * round_rows;
    const std::string dir = fresh_dir(opt.work_dir, "ingest_wal");

    // ---- set up: render the batches, open the engine on an empty WAL.
    double t0 = now_s();
    double c0 = process_cpu_s();
    batches.assign(batches_per_round, {});
    {
      // Rendered on every core: on a shared host each core's speed steps
      // on its own, so set-up CPU time averaged over them moves less.
      std::vector<std::thread> renderers;
      for (unsigned t = 0; t < kRenderThreads; ++t) {
        renderers.emplace_back([&, t] {
          for (std::size_t b = t; b < batches.size(); b += kRenderThreads) {
            batches[b] = gen.lines(first + b * batch_rows, batch_rows);
          }
        });
      }
      for (auto& t : renderers) t.join();
    }
    auto db = std::make_unique<tsdb::TimeSeriesDb>();
    auto engine = std::make_unique<IngestEngine>(engine_options(dir), db.get());
    if (auto s = engine->open(); !s.is_ok()) {
      r.fail("engine open: " + s.to_string());
      return r;
    }
    setups.push_back(now_s() - t0);
    setup_cpu.push_back(process_cpu_s() - c0);
    const StoreTotals st0 = store_totals({db.get()});

    // ---- ingest: two closed-loop sampler agents.
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> acked{0}, failed{0};
    std::vector<Samples> lat(kProducers);
    const double start = now_s();
    const double cpu_start = process_cpu_s();
    {
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (;;) {
            const std::size_t b = next.fetch_add(1);
            if (b >= batches.size()) return;
            trace::begin_request();
            const double t = now_s();
            pmove::Status s = pmove::Status::ok();
            {
              trace::Span span("ingest.submit_lines");
              s = engine->submit_lines(batches[b]);
            }
            lat[static_cast<std::size_t>(p)].add((now_s() - t) * 1e6);
            if (s.is_ok()) {
              acked += batch_rows;
            } else {
              failed += 1;
            }
          }
        });
      }
      for (auto& t : producers) t.join();
    }
    const double last_ack = now_s();
    pmove::Status flushed = pmove::Status::ok();
    {
      trace::Span span("ingest.flush");
      flushed = engine->flush();
    }
    const double flushed_at = now_s();
    write_cpu.add(process_cpu_s() - cpu_start, static_cast<double>(acked.load()));
    r.attempted += batches.size() + 1;
    if (!flushed.is_ok()) r.fail("flush: " + flushed.to_string());
    for (std::uint64_t i = 0; i < failed.load(); ++i) r.fail("submit_lines failed");
    for (const Samples& s : lat) acks.append(s);
    rates.push_back(static_cast<double>(acked.load()) / (flushed_at - start));
    drains.push_back((flushed_at - last_ack) * 1e3);
    const pmove::ingest::IngestStats is = engine->stats();
    blocked += is.blocked_submits;
    submitted += is.submitted_batches;
    max_depth = std::max(max_depth, is.max_queue_depth);
    const StoreTotals st1 = store_totals({db.get()});
    store.add_phase(st0, st1);
    resident.push_back(static_cast<double>(st1.resident_bytes) /
                       static_cast<double>(std::max<std::size_t>(1, st1.points)));
    engine->close();
    engine.reset();

    // ---- restart: a fresh engine and DB over the same WAL.
    t0 = now_s();
    c0 = process_cpu_s();
    auto db2 = std::make_unique<tsdb::TimeSeriesDb>();
    auto engine2 =
        std::make_unique<IngestEngine>(engine_options(dir), db2.get());
    pmove::Status opened = pmove::Status::ok();
    {
      trace::begin_request();
      trace::Span span("ingest.open");
      opened = engine2->open();
    }
    const double open_s = now_s() - t0;
    const double open_cpu = process_cpu_s() - c0;
    r.attempted += 1;
    if (!opened.is_ok()) {
      r.fail("restart open: " + opened.to_string());
      return r;
    }
    const std::uint64_t recovered = engine2->stats().recovered_points;
    recovers.push_back(static_cast<double>(recovered) / open_s);
    recover_cpu.add(open_cpu, static_cast<double>(recovered));

    // ---- the first dashboards after restart: one focus query per host.
    const std::uint64_t last_tick = (first + round_rows - 1) / gen.stream().series;
    const std::vector<query::Query> focus = focus_queries(gen, last_tick);
    std::vector<tsdb::QueryResult> answers(focus.size() * kFocusPasses);
    query::QueryEngine qe(*db2);
    const double q0 = now_s();
    const double qc0 = process_cpu_s();
    for (std::size_t n = 0; n < answers.size(); ++n) {
      const std::size_t i = n % focus.size();
      trace::begin_request();
      const double t = now_s();
      pmove::Expected<tsdb::QueryResult> res =
          pmove::Status::internal("not run");
      {
        trace::Span span("query.engine_run");
        res = qe.run(focus[i]);
      }
      qlat.add((now_s() - t) * 1e3);
      r.attempted += 1;
      if (!res) {
        r.fail("focus query: " + res.status().to_string());
        continue;
      }
      answers[n] = std::move(res.value());
    }
    query_s += now_s() - q0;
    query_cpu.add(process_cpu_s() - qc0, static_cast<double>(answers.size()));
    queries += answers.size();
    cache_hits += qe.stats().cache_hits;
    engine_queries += qe.stats().queries;
    measured += (flushed_at - start) + open_s + (now_s() - q0);

    // ---- checks (untimed): acked == stored == recovered, bit for bit.
    const Digest want = expected_digest(gen, first, acked.load());
    r.attempted += 3;
    if (acked.load() != round_rows) r.fail("not every batch was acked");
    if (!(stored_digest(*db, gen.stream()) == want)) {
      r.fail("live DB does not hold exactly the acked points");
    }
    if (recovered != acked.load() ||
        !(stored_digest(*db2, gen.stream()) == want)) {
      r.fail("recovered DB does not hold exactly the acked points");
    }
    std::string why;
    for (std::size_t n = 0; n < answers.size(); ++n) {
      auto live = query::run(*db, focus[n % focus.size()]);
      if (!live || !same_result(live.value(), answers[n], &why)) {
        r.fail("recovered focus answer differs from live: " + why);
      }
    }
    for (const PanelQuery& pq : checked_aggregates(gen)) {
      r.attempted += 1;
      auto live = query::run(*db, pq.query);
      auto rec = query::run(*db2, pq.query);
      if (!live || !rec || !same_result(live.value(), rec.value(), &why)) {
        r.fail(pq.panel + ": recovered answer differs from live: " + why);
      }
    }
    engine2->close();
    engine2.reset();
    recovered_db = std::move(db2);
    remove_dir(dir);

    r.info.push_back("round " + std::to_string(round) + ": " +
                     std::to_string(acked.load()) + " points acked, " +
                     std::to_string(recovered) + " replayed in " +
                     std::to_string(open_s) + " s");
  }

  const double nq = static_cast<double>(std::max<std::size_t>(1, queries));
  const std::string rounds = std::to_string(setups.size()) + " rounds";
  r.set("setup_s", median(setup_cpu), "s", rounds);
  r.set("write_cpu_us_per_point", write_cpu.us_per_op(), "us",
        rounds + ", first submit to flush() return");
  r.set_report("recover_cpu_us_per_point", recover_cpu.us_per_op(), "us",
               rounds + ", restart open()");
  r.set_report("query_cpu_us_per_query", query_cpu.us_per_op(), "us",
               rounds + ", post-restart focus queries");
  r.set("resident_bytes_per_point", median(resident), "bytes");
  r.set_report("setup_wall_s", median(setups), "s", rounds);
  r.set_report("ingest_points_per_s", median(rates), "1/s", rounds);
  r.set_percentiles("ingest_ack", acks, "us");
  r.set_report("recover_points_per_s", median(recovers), "1/s",
               std::to_string(recovers.size()) + " restarts");
  r.set_report("query_per_s", nq / query_s, "1/s",
               "post-restart focus queries, 1 client");
  r.set_percentiles("query", qlat, "ms");
  r.info.push_back("data: seed " + std::to_string(opt.seed) + ", " +
                   std::to_string(gen.stream().series) + " hosts x " +
                   std::to_string(gen.stream().fields.size()) +
                   " fields, " + std::to_string(batch_rows) +
                   " lines/batch, " + std::to_string(round_rows) +
                   " points/round, ooo fraction " +
                   std::to_string(gen.stream().ooo_fraction));
  r.info.push_back(
      "wal flush policy: no fsync per append (OS page cache), block "
      "backpressure, " + std::to_string(kShards) +
      " shards, engine attached to one caller-owned DB");

  if (opt.trace) {
    r.set_layer("ingest.blocked_submit_ratio",
                static_cast<double>(blocked) /
                    static_cast<double>(std::max<std::uint64_t>(1, submitted)),
                "ratio");
    r.set_layer("ingest.max_queue_depth", static_cast<double>(max_depth),
                "count");
    r.set_layer("ingest.drain_ms", median(drains), "ms");
    set_store_layer(store, r);
    r.set_layer("query.cache_hit_ratio",
                static_cast<double>(cache_hits) /
                    static_cast<double>(std::max<std::uint64_t>(1, engine_queries)),
                "ratio");
    r.set_layer("fleet.pushdown_ratio", 0, "ratio");
    r.set_layer("fleet.node_imbalance", 1, "ratio");

    ProbeInput in;
    for (const std::string& b : batches) in.batches.push_back(&b);
    in.dbs = {recovered_db.get()};
    const std::uint64_t last_tick =
        (batches_per_round * batch_rows - 1) / gen.stream().series;
    const auto focus = focus_queries(gen, last_tick);
    for (std::size_t i = 0; i < focus.size(); i += focus.size() / 64 + 1) {
      in.queries.push_back({"focus", focus[i]});
    }
    for (PanelQuery& pq : checked_aggregates(gen)) in.queries.push_back(pq);
    in.wal_dir = opt.work_dir + "/probe_wal";
    probe_layers(in, r);
  }
  return r;
}

}  // namespace pb
