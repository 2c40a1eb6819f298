// fleet_wire: scatter/gather over real sockets.
//
// Rounds of: set up (render the round's batches, start four fleet nodes
// behind loopback TCP) → write phase (one client routes every batch through
// Fleet::write_batch, then flush) → restart (every node's store is
// restored from its session dump with TimeSeriesDb::load_from_file) → query phase
// (one closed-loop client mixing exact-gather and pushdown queries)
// → checks against one TimeSeriesDb holding the same points.  Rounds repeat
// until the measured time reaches --seconds.
//
// Not in BENCHMARK.json: on a shared host its CPU cost per point moves by a
// third with other tenants' load, more than a bound may allow (README).
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "check.hpp"
#include "fleet/fleet.hpp"
#include "layers.hpp"
#include "query/plan.hpp"
#include "trace.hpp"

namespace pb {

namespace {

namespace tsdb = pmove::tsdb;
namespace query = pmove::query;
using pmove::fleet::Fleet;
using pmove::fleet::FleetOptions;

constexpr int kNodes = 4;
constexpr double kQueryShare = 0.4;  ///< of each round's measured time
constexpr int kOverheadRepeats = 5;  ///< traced pass: in-process comparison

std::string node_name(int i) { return "node" + std::to_string(i); }

/// The query mix: exact gather (mean, grouped mean, bounded raw, and one
/// fleet-wide mean) and pushdown (min/max/count), each over several hosts
/// and windows inside the written data.
std::vector<PanelQuery> query_mix(const Generator& gen, std::uint64_t ticks) {
  const Stream& s = gen.stream();
  using A = query::Aggregate;
  std::vector<PanelQuery> out;
  for (std::uint64_t v = 0; v < 8; ++v) {
    const std::string host = gen.series_tag((v * 97 + 13) % s.series);
    const std::string field = s.fields[v % s.fields.size()];
    const std::uint64_t end_tick = ticks - 1 - (v * 17) % (ticks / 2);
    auto window = [&](std::uint64_t len) {
      return std::pair{gen.tick_time(end_tick + 1 - std::min(len, end_tick + 1)),
                       gen.tick_time(end_tick + 1) - 1};
    };
    auto [lo120, hi] = window(120);
    auto [lo300, hi2] = window(300);
    auto [lo30, hi3] = window(30);
    auto [lo10, hi4] = window(10);
    auto [lo60, hi5] = window(60);
    (void)hi2, (void)hi3, (void)hi4, (void)hi5;
    out.push_back({"exact mean", query::QueryBuilder(s.measurement)
                                     .select(A::kMean, field)
                                     .where_tag(s.tag_key, host)
                                     .since(lo120)
                                     .until(hi)
                                     .build()});
    out.push_back({"exact grouped mean", query::QueryBuilder(s.measurement)
                                             .select(A::kMean, field)
                                             .where_tag(s.tag_key, host)
                                             .since(lo300)
                                             .until(hi)
                                             .group_by_time(10 * s.step_ns)
                                             .build()});
    out.push_back({"exact raw", query::QueryBuilder(s.measurement)
                                    .select(field)
                                    .where_tag(s.tag_key, host)
                                    .since(lo30)
                                    .until(hi)
                                    .build()});
    out.push_back({"exact fleet mean", query::QueryBuilder(s.measurement)
                                           .select(A::kMean, field)
                                           .since(lo10)
                                           .until(hi)
                                           .build()});
    out.push_back({"pushdown min-max-count", query::QueryBuilder(s.measurement)
                                                 .select(A::kMin, field)
                                                 .select(A::kMax, field)
                                                 .select(A::kCount, field)
                                                 .since(lo60)
                                                 .until(hi)
                                                 .build()});
    out.push_back({"pushdown host max", query::QueryBuilder(s.measurement)
                                            .select(A::kMax, field)
                                            .where_tag(s.tag_key, host)
                                            .since(lo300)
                                            .until(hi)
                                            .build()});
  }
  return out;
}

std::vector<const tsdb::TimeSeriesDb*> node_dbs(Fleet& fleet) {
  std::vector<const tsdb::TimeSeriesDb*> dbs;
  for (int i = 0; i < kNodes; ++i) {
    if (auto n = fleet.node(node_name(i))) dbs.push_back(&n.value()->db());
  }
  return dbs;
}

struct Answer {
  std::size_t query = 0;  ///< index into the mix
  pmove::fleet::FleetQueryResult result;
};

}  // namespace

Result run_fleet_wire(const Options& opt) {
  Result r;
  const Scale sc = Scale::make(opt.scale);
  const Generator gen(opt.seed, sc.fleet);
  const std::size_t batch_rows = sc.fleet.batch_rows;
  const std::size_t batches_per_round =
      std::max<std::size_t>(1, sc.fleet_rows / batch_rows);
  const std::size_t round_rows = batches_per_round * batch_rows;

  Samples acks, qlat;
  std::vector<double> setups, rates, recovers, resident, drains, imbalance;
  std::vector<double> setup_cpu;
  CpuCost write_cpu, recover_cpu, query_cpu;
  double measured = 0, query_s = 0;
  std::size_t queries = 0, pushdowns = 0;
  std::uint64_t blocked = 0, submitted = 0;
  std::size_t max_depth = 0;
  StoreTotals store;
  std::unique_ptr<Fleet> fleet;
  std::vector<std::vector<tsdb::Point>> batches;
  std::vector<PanelQuery> mix;

  for (std::size_t round = 0; round == 0 || measured < opt.seconds; ++round) {
    const std::uint64_t first = round * round_rows;
    const std::uint64_t ticks =
        (first + round_rows) / gen.stream().series;  // data so far

    // ---- set up: render the batches, start the nodes.
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    batches.assign(batches_per_round, {});
    for (std::size_t b = 0; b < batches_per_round; ++b) {
      batches[b] = gen.points(first + b * batch_rows, batch_rows);
    }
    fleet.reset();
    FleetOptions fo;
    fo.wire.enabled = true;
    fleet = std::make_unique<Fleet>(fo);
    for (int i = 0; i < kNodes; ++i) {
      if (auto s = fleet->add_node(node_name(i)); !s.is_ok()) {
        r.fail("add_node: " + s.to_string());
        return r;
      }
    }
    setups.push_back(now_s() - t0);
    setup_cpu.push_back(process_cpu_s() - c0);
    const StoreTotals st0 = store_totals(node_dbs(*fleet));

    // ---- write phase: one client, closed loop.
    const double start = now_s();
    const double cpu_start = process_cpu_s();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      trace::begin_request();
      std::vector<tsdb::Point> batch = batches[b];  // keep ours for the checks
      const double t = now_s();
      pmove::Status s = pmove::Status::ok();
      {
        trace::Span span("fleet.write_batch");
        s = fleet->write_batch(std::move(batch));
      }
      acks.add((now_s() - t) * 1e6);
      r.attempted += 1;
      if (!s.is_ok()) r.fail("fleet write_batch: " + s.to_string());
    }
    const double last_ack = now_s();
    pmove::Status flushed = pmove::Status::ok();
    {
      trace::Span span("fleet.flush");
      flushed = fleet->flush();
    }
    const double flushed_at = now_s();
    write_cpu.add(process_cpu_s() - cpu_start, static_cast<double>(round_rows));
    r.attempted += 1;
    if (!flushed.is_ok()) r.fail("fleet flush: " + flushed.to_string());
    rates.push_back(static_cast<double>(round_rows) / (flushed_at - start));
    drains.push_back((flushed_at - last_ack) * 1e3);
    const StoreTotals st1 = store_totals(node_dbs(*fleet));
    store.add_phase(st0, st1);
    resident.push_back(static_cast<double>(st1.resident_bytes) /
                       static_cast<double>(std::max<std::size_t>(1, st1.points)));
    {
      std::size_t most = 0;
      for (const tsdb::TimeSeriesDb* db : node_dbs(*fleet)) {
        most = std::max(most, db->point_count());
      }
      imbalance.push_back(static_cast<double>(most) * kNodes /
                          static_cast<double>(std::max<std::size_t>(1, st1.points)));
    }
    for (int i = 0; i < kNodes; ++i) {
      if (auto n = fleet->node(node_name(i))) {
        const auto is = n.value()->engine().stats();
        blocked += is.blocked_submits;
        submitted += is.submitted_batches;
        max_depth = std::max(max_depth, is.max_queue_depth);
      }
    }

    // ---- restart: every node's store comes back from its session dump.
    const std::string dir = fresh_dir(opt.work_dir, "fleet_wire");
    double restore_s = 0;
    for (int i = 0; i < kNodes; ++i) {
      const tsdb::TimeSeriesDb& node_db =
          fleet->node(node_name(i)).value()->db();
      const std::string path = dir + "/" + node_name(i) + ".lp";
      r.attempted += 2;
      if (auto s = node_db.dump_to_file(path); !s.is_ok()) {
        r.fail("dump_to_file: " + s.to_string());
      }
      const double tj = now_s();
      const double cj = process_cpu_s();
      tsdb::TimeSeriesDb restored;
      pmove::Status loaded = pmove::Status::ok();
      {
        trace::begin_request();
        trace::Span span("tsdb.load_from_file");
        loaded = restored.load_from_file(path);
      }
      const double dt = now_s() - tj;
      recover_cpu.add(process_cpu_s() - cj,
                      static_cast<double>(restored.point_count()));
      restore_s += dt;
      recovers.push_back(static_cast<double>(restored.point_count()) / dt);
      if (!loaded.is_ok() || !(stored_digest(restored, gen.stream()) ==
                               stored_digest(node_db, gen.stream()))) {
        r.fail("restored node store differs from the node's: " +
               loaded.to_string());
      }
    }
    remove_dir(dir);

    // ---- query phase: one closed-loop client.
    mix = query_mix(gen, ticks);
    std::vector<Answer> answers;
    const double phase = kQueryShare * ((flushed_at - start) + restore_s) /
                         (1.0 - kQueryShare);
    const double q0 = now_s();
    const double qc0 = process_cpu_s();
    for (std::size_t i = 0; now_s() - q0 < phase || i < mix.size(); ++i) {
      const std::size_t k = i % mix.size();
      trace::begin_request();
      const double t = now_s();
      pmove::Expected<pmove::fleet::FleetQueryResult> res =
          pmove::Status::internal("not run");
      {
        trace::Span span("fleet.query");
        res = fleet->query(mix[k].query);
      }
      qlat.add((now_s() - t) * 1e3);
      r.attempted += 1;
      if (!res) {
        r.fail("fleet query: " + res.status().to_string());
        continue;
      }
      if (res.value().pushdown) pushdowns += 1;
      answers.push_back({k, std::move(res.value())});
    }
    const double q_s = now_s() - q0;
    query_cpu.add(process_cpu_s() - qc0, static_cast<double>(answers.size()));
    query_s += q_s;
    queries += answers.size();
    measured += (flushed_at - start) + restore_s + q_s;

    // ---- checks (untimed): every answer equals one DB holding the same
    // points, none degraded, and the nodes hold exactly the acked points.
    tsdb::TimeSeriesDb reference;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (auto s = reference.write_batch(batches[b]); !s.is_ok()) {
        r.fail("reference write: " + s.to_string());
      }
    }
    std::vector<tsdb::QueryResult> want(mix.size());
    for (std::size_t k = 0; k < mix.size(); ++k) {
      auto w = query::run(reference, mix[k].query);
      if (w) want[k] = std::move(w.value());
    }
    std::string why;
    for (const Answer& a : answers) {
      if (a.result.degraded()) {
        r.fail("degraded answer to " + mix[a.query].panel);
      } else if (!same_result(want[a.query], a.result.result, &why)) {
        r.fail(mix[a.query].panel + ": fleet answer differs: " + why);
      }
    }
    Digest stored;
    for (const tsdb::TimeSeriesDb* db : node_dbs(*fleet)) {
      stored.merge(stored_digest(*db, gen.stream()));
    }
    r.attempted += 1;
    if (!(stored == expected_digest(gen, first, round_rows))) {
      r.fail("the nodes do not hold exactly the acked points");
    }
  }

  const double nq = static_cast<double>(std::max<std::size_t>(1, queries));
  const std::string rounds = std::to_string(setups.size()) + " rounds";
  r.set("setup_s", median(setup_cpu), "s", rounds);
  r.set("write_cpu_us_per_point", write_cpu.us_per_op(), "us",
        rounds + ", first write_batch to flush() return, client and nodes");
  r.set_report("recover_cpu_us_per_point", recover_cpu.us_per_op(), "us",
               std::to_string(recovers.size()) + " node session restores");
  r.set_report("query_cpu_us_per_query", query_cpu.us_per_op(), "us",
               rounds + ", client and nodes");
  r.set("resident_bytes_per_point", median(resident), "bytes");
  r.set_report("setup_wall_s", median(setups), "s", rounds);
  r.set_report("ingest_points_per_s", median(rates), "1/s", rounds);
  r.set_percentiles("ingest_ack", acks, "us");
  r.set_report("recover_points_per_s", median(recovers), "1/s",
               std::to_string(recovers.size()) + " node session restores");
  r.set_report("query_per_s", nq / query_s, "1/s", "1 closed-loop client");
  r.set_percentiles("query", qlat, "ms");
  r.info.push_back("data: seed " + std::to_string(opt.seed) + ", " +
                   std::to_string(gen.stream().series) + " hosts x " +
                   std::to_string(gen.stream().fields.size()) + " fields, " +
                   std::to_string(batch_rows) + " points/batch, " +
                   std::to_string(round_rows) + " points/round, " +
                   std::to_string(kNodes) +
                   " nodes over loopback TCP, ooo fraction " +
                   std::to_string(gen.stream().ooo_fraction));

  if (opt.trace) {
    r.set_layer("ingest.blocked_submit_ratio",
                static_cast<double>(blocked) /
                    static_cast<double>(std::max<std::uint64_t>(1, submitted)),
                "ratio");
    r.set_layer("ingest.max_queue_depth", static_cast<double>(max_depth),
                "count");
    r.set_layer("ingest.drain_ms", median(drains), "ms");
    set_store_layer(store, r);
    r.set_layer("query.cache_hit_ratio", 0, "ratio");
    r.set_layer("fleet.pushdown_ratio", static_cast<double>(pushdowns) / nq,
                "ratio");
    r.set_layer("fleet.node_imbalance", median(imbalance), "ratio");
    r.set_layer("fleet.write_ms_per_batch", acks.median() / 1e3, "ms");

    // Wire overhead: the same queries on an in-process fleet holding the
    // same points, in-process time subtracted per query.
    FleetOptions fo;
    Fleet local(fo);
    for (int i = 0; i < kNodes; ++i) (void)local.add_node(node_name(i));
    for (const auto& b : batches) (void)local.write_batch(b);
    (void)local.flush();
    double diff_ms = 0;
    std::size_t n = 0;
    for (int rep = 0; rep < kOverheadRepeats; ++rep) {
      for (const PanelQuery& pq : mix) {
        double t = now_s();
        auto a = fleet->query(pq.query);
        const double wire_ms = (now_s() - t) * 1e3;
        t = now_s();
        auto b = local.query(pq.query);
        const double local_ms = (now_s() - t) * 1e3;
        r.attempted += 1;
        if (!a || !b || !same_result(a.value().result, b.value().result, nullptr)) {
          r.fail("wire and in-process fleets disagree on " + pq.panel);
          continue;
        }
        diff_ms += wire_ms - local_ms;
        n += 1;
      }
    }
    r.set_layer("fleet.wire_overhead_ms",
                diff_ms / static_cast<double>(std::max<std::size_t>(1, n)), "ms");

    // Probes over the fleet's own batches and the nodes' stores.
    std::vector<std::string> texts;
    for (std::size_t b = 0; b < std::min<std::size_t>(batches.size(), 256); ++b) {
      std::string t;
      for (const tsdb::Point& p : batches[b]) t += p.to_line() + "\n";
      texts.push_back(std::move(t));
    }
    ProbeInput in;
    for (const std::string& t : texts) in.batches.push_back(&t);
    in.dbs = node_dbs(*fleet);
    in.queries = mix;
    in.wal_dir = opt.work_dir + "/probe_wal";
    probe_layers(in, r);
  }
  return r;
}

}  // namespace pb
