#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "check.hpp"
#include "fleet/node.hpp"
#include "fleet/wire/codec.hpp"
#include "ingest/wal.hpp"
#include "query/plan.hpp"
#include "trace.hpp"

namespace pb {

namespace {

namespace tsdb = pmove::tsdb;
namespace wire = pmove::fleet::wire;

// Probe sizes: enough calls for stable per-call means, few enough that the
// probes stay a small part of a traced run.
constexpr std::size_t kProbeBatches = 256;

/// Splits a line-protocol payload and parses every line inside a span.
bool parse_lines(std::string_view text, std::vector<tsdb::Point>& out,
                 Result& r) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    pmove::Expected<tsdb::Point> p = pmove::Status::internal("not parsed");
    {
      trace::Span s("ingest.from_line");
      p = tsdb::Point::from_line(line);
    }
    if (!p) {
      r.fail("probe parse: " + p.status().to_string());
      return false;
    }
    out.push_back(std::move(p.value()));
  }
  return true;
}

bool pushdown_shape(const pmove::query::Query& q) {
  const pmove::query::Plan plan = pmove::query::make_plan(q);
  return plan.kind == pmove::query::PlanKind::kAggregate && !q.select_all &&
         !q.selectors.empty() &&
         std::all_of(q.selectors.begin(), q.selectors.end(),
                     [](const pmove::query::Selector& s) {
                       return pmove::query::order_insensitive(s.aggregate);
                     });
}

void probe_ingest(const ProbeInput& in, Result& r) {
  const std::size_t n = std::min(in.batches.size(), kProbeBatches);
  std::size_t points = 0;
  for (std::size_t i = 0; i < n; ++i) {
    trace::begin_request();
    std::vector<tsdb::Point> parsed;
    if (!parse_lines(*in.batches[i], parsed, r)) return;
    points += parsed.size();
  }

  pmove::ingest::Wal wal;
  pmove::ingest::WalOptions wo;
  wo.dir = in.wal_dir;
  wo.sync_each_append = false;  // as engine_options() in ingest_wal.cpp
  if (auto s = wal.open(wo); !s.is_ok()) {
    r.fail("probe wal open: " + s.to_string());
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    trace::begin_request();
    trace::Span s("ingest.wal_append");
    if (auto lsn = wal.append(*in.batches[i]); !lsn) {
      r.fail("probe wal append: " + lsn.status().to_string());
      return;
    }
  }
  r.count("ingest.wal_append.bytes", static_cast<double>(wal.bytes_appended()));
  r.count("ingest.wal_append.points", static_cast<double>(points));

  tsdb::TimeSeriesDb scratch;
  std::size_t replayed = 0;
  {
    trace::begin_request();
    trace::Span s("ingest.wal_replay");
    auto st = wal.replay([&](std::string_view payload) {
      std::vector<tsdb::Point> batch;
      if (!parse_lines(payload, batch, r)) return pmove::Status::parse_error("probe replay parse");
      replayed += batch.size();
      trace::Span w("tsdb.write_batch");
      return scratch.write_batch(std::move(batch));
    });
    if (!st.is_ok()) r.fail("probe wal replay: " + st.to_string());
  }
  r.count("tsdb.write_batch.points", static_cast<double>(replayed));
  r.attempted += 1;
  if (replayed != points || scratch.point_count() != points) {
    r.fail("probe replay: " + std::to_string(scratch.point_count()) +
           " stored of " + std::to_string(points) + " appended");
  }
  wal.close();
  remove_dir(in.wal_dir);
}

void probe_queries(const ProbeInput& in, Result& r) {
  const StoreTotals before = store_totals(in.dbs);
  std::size_t scanned = 0, result_rows = 0, codec_points = 0;
  double gather_bytes = 0;
  std::map<std::string, std::pair<double, double>> per_panel;  // build, fold
  for (const PanelQuery& pq : in.queries) {
    trace::begin_request();
    const std::string text = pq.query.to_string();
    pmove::Expected<pmove::query::Query> parsed =
        pmove::Status::internal("not parsed");
    {
      trace::Span s("query.parse");
      parsed = pmove::query::Query::parse(text);
    }
    r.attempted += 1;
    if (!parsed || !(parsed.value() == pq.query)) {
      r.fail("probe parse of '" + text + "' did not round-trip");
      continue;
    }
    pmove::query::Plan plan;
    {
      trace::Span s("query.plan");
      plan = pmove::query::make_plan(parsed.value());
    }
    const bool pd = pushdown_shape(pq.query);
    const pmove::query::Query& q = pq.query;
    for (const tsdb::TimeSeriesDb* db : in.dbs) {
      pmove::fleet::NodePartial partial;
      pmove::Expected<tsdb::QueryResult> res = tsdb::QueryResult{};
      pmove::TimeNs called = 0, entered = 0, folded = 0;
      {
        trace::Span s("tsdb.scan");
        called = trace::now_ns();
        db->scan(q.measurement, q.time_min, q.time_max, q.tag_filters,
                 [&](std::span<const tsdb::SeriesView> views) {
                   entered = trace::now_ns();
                   trace::record("tsdb.scan_build", called, entered);
                   for (const tsdb::SeriesView& v : views) {
                     partial.matched += v.rows();
                   }
                   trace::Span f("query.execute_columnar");
                   res = pmove::query::execute_columnar(plan, views);
                   folded = trace::now_ns();
                 });
      }
      if (entered == 0) continue;  // measurement absent on this node
      if (!res) {
        r.fail("probe execute '" + text + "': " + res.status().to_string());
        continue;
      }
      scanned += partial.matched;
      result_rows += res.value().rows.size();
      per_panel[pq.panel].first += static_cast<double>(entered - called);
      per_panel[pq.panel].second += static_cast<double>(folded - entered);

      // What a fleet node would ship back for this query: its partial for
      // pushdown shapes, its matching points for exact gather.
      wire::Writer w;
      if (pd) {
        partial.result = std::move(res.value());
        {
          trace::Span s("fleet.encode_partial");
          wire::encode_partial(partial, w);
        }
        gather_bytes += static_cast<double>(w.buffer().size());
        continue;
      }
      const std::vector<tsdb::Point> points =
          db->collect(q.measurement, q.time_min, q.time_max, q.tag_filters);
      {
        trace::Span s("fleet.encode_points");
        wire::encode_points(points, w);
      }
      gather_bytes += static_cast<double>(w.buffer().size());
      std::vector<tsdb::Point> decoded;
      wire::Reader rd(w.buffer());
      pmove::Status st = pmove::Status::ok();
      {
        trace::Span s("fleet.decode_points");
        st = wire::decode_points(rd, decoded);
      }
      codec_points += points.size();
      if (!st.is_ok() || decoded.size() != points.size()) {
        r.fail("probe codec round trip of '" + text + "'");
      }
    }
  }
  const StoreTotals after = store_totals(in.dbs);
  const double nq = static_cast<double>(std::max<std::size_t>(1, in.queries.size()));
  r.count("query.probe.queries", nq);
  r.count("fleet.codec.points", static_cast<double>(codec_points));
  r.set_layer("tsdb.index_probes_per_query",
              static_cast<double>(after.index_probes - before.index_probes) / nq,
              "count");
  r.set_layer("query.rows_per_result_row",
              static_cast<double>(scanned) /
                  static_cast<double>(std::max<std::size_t>(1, result_rows)),
              "count");
  r.set_layer("fleet.gather_bytes_per_query", gather_bytes / nq, "bytes");
  for (const auto& [panel, t] : per_panel) {
    r.info.push_back("panel " + panel + ": scan build " +
                     std::to_string(t.first / 1e6) + " ms, fold " +
                     std::to_string(t.second / 1e6) + " ms (probe totals)");
  }
}

double ms(double ns) { return ns / 1e6; }

}  // namespace

void probe_layers(const ProbeInput& in, Result& r) {
  const bool was = trace::enabled();
  trace::enable(true);
  probe_ingest(in, r);
  probe_queries(in, r);
  trace::enable(was);
}

void report_spans(const std::string& csv_path, Result& r) {
  const std::vector<trace::Record> spans = trace::drain();
  if (!csv_path.empty() && !trace::write_csv(spans, csv_path)) {
    r.info.push_back("could not write " + csv_path);
  }
  const auto totals = trace::summarize(spans);
  auto get = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? trace::NameTotals{} : it->second;
  };
  auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  auto count = [&](const std::string& name) {
    auto it = r.counts.find(name);
    return it == r.counts.end() ? 0.0 : it->second;
  };

  // Parse spans outside WAL replay are the probe's parse of the workload's
  // own batches; inside replay they are recovery parse.
  const auto parse_all = get("ingest.from_line");
  const auto parse_replay = get("ingest.wal_replay/ingest.from_line");
  r.set_layer("ingest.parse_ns_per_point",
              per(parse_all.total_ns - parse_replay.total_ns,
                  static_cast<double>(parse_all.count - parse_replay.count)),
              "ns");
  const auto append = get("ingest.wal_append");
  r.set_layer("ingest.wal_append_us_per_batch",
              per(append.total_ns, static_cast<double>(append.count)) / 1e3,
              "us");
  r.set_layer("ingest.wal_bytes_per_point",
              per(count("ingest.wal_append.bytes"),
                  count("ingest.wal_append.points")),
              "bytes");
  r.set_layer("ingest.replay_parse_ms", ms(parse_replay.total_ns), "ms");
  r.set_layer("ingest.replay_write_ms",
              ms(get("ingest.wal_replay/tsdb.write_batch").total_ns), "ms");
  // Uncontended write_batch inside the replay probe; a workload's own
  // write_batch spans also hold lock waits and show in the span table.
  r.set_layer("tsdb.write_batch_ns_per_point",
              per(get("ingest.wal_replay/tsdb.write_batch").total_ns,
                  count("tsdb.write_batch.points")),
              "ns");
  const double nq = count("query.probe.queries");
  r.set_layer("tsdb.scan_build_ms", ms(per(get("tsdb.scan_build").total_ns, nq)),
              "ms");
  r.set_layer("query.fold_ms",
              ms(per(get("query.execute_columnar").total_ns, nq)), "ms");
  r.set_layer("query.parse_us", per(get("query.parse").total_ns, nq) / 1e3,
              "us");
  r.set_layer("query.plan_us", per(get("query.plan").total_ns, nq) / 1e3, "us");
  const double codec_points = count("fleet.codec.points");
  r.set_layer("fleet.encode_ns_per_point",
              per(get("fleet.encode_points").total_ns, codec_points), "ns");
  r.set_layer("fleet.decode_ns_per_point",
              per(get("fleet.decode_points").total_ns, codec_points), "ns");

  for (const auto& [name, t] : totals) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "span %-48s n=%-8llu total %10.3f ms  self %10.3f ms",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  ms(t.total_ns), ms(t.self_ns));
    r.info.push_back(line);
  }
}

StoreTotals store_totals(const std::vector<const tsdb::TimeSeriesDb*>& dbs) {
  StoreTotals t;
  for (const tsdb::TimeSeriesDb* db : dbs) {
    const tsdb::TsdbStats s = db->stats();
    t.points += s.points;
    t.resident_bytes += s.column_bytes + s.dict_bytes;
    t.column_bytes += s.column_bytes;
    t.run_seals += s.run_seals;
    t.run_folds += s.run_folds;
    t.pack_time_ns += s.pack_time_ns;
    t.index_probes += s.index_probes;
    t.bytes_raw += s.bytes_raw;
    t.bytes_packed += s.bytes_packed;
  }
  return t;
}

void StoreTotals::add_phase(const StoreTotals& before,
                            const StoreTotals& after) {
  run_seals += after.run_seals - before.run_seals;
  run_folds += after.run_folds - before.run_folds;
  pack_time_ns += after.pack_time_ns - before.pack_time_ns;
  column_bytes = after.column_bytes;
  bytes_raw = after.bytes_raw;
  bytes_packed = after.bytes_packed;
}

void set_store_layer(const StoreTotals& phases, Result& r) {
  r.set_layer("tsdb.run_seals", static_cast<double>(phases.run_seals), "count");
  r.set_layer("tsdb.run_folds", static_cast<double>(phases.run_folds), "count");
  r.set_layer("tsdb.pack_ms", static_cast<double>(phases.pack_time_ns) / 1e6,
              "ms");
  // Share of the column data (in raw-equivalent bytes) held in packed runs.
  const double unpacked =
      static_cast<double>(phases.column_bytes - phases.bytes_packed);
  const double raw = static_cast<double>(phases.bytes_raw);
  r.set_layer("tsdb.packed_ratio",
              raw + unpacked > 0 ? raw / (raw + unpacked) : 0, "ratio");
}

}  // namespace pb
