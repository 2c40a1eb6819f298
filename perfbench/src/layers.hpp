// Per-layer probes of the traced pass.
//
// After a workload's traced pass, the same probe suite runs over that
// workload's own inputs: its write payloads and its dashboard queries.
// Every call into a layer sits inside a trace::Span, and the per-layer
// metrics are read back from the spans, so each workload reports every
// per-layer metric from its own data.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "query/query.hpp"
#include "tsdb/db.hpp"

namespace pb {

struct PanelQuery {
  std::string panel;
  pmove::query::Query query;
};

struct ProbeInput {
  /// Line-protocol payloads the workload wrote, one per batch.
  std::vector<const std::string*> batches;
  /// Stores the workload's queries read (one per node on a fleet).
  std::vector<const pmove::tsdb::TimeSeriesDb*> dbs;
  std::vector<PanelQuery> queries;
  std::string wal_dir;  ///< scratch WAL the probe owns
};

/// Runs the probe suite with tracing on and sets the probe metrics on `r`
/// (ingest.parse/wal/replay, tsdb.write_batch/scan/index, query.parse/
/// plan/fold, fleet codec).  Mismatches count as failures on `r`.
void probe_layers(const ProbeInput& in, Result& r);

/// Drains the spans recorded so far, writes them to `csv_path` (when not
/// empty) and adds one info line per span name: count, total and self time.
void report_spans(const std::string& csv_path, Result& r);

/// Seal/fold/pack counters and resident bytes summed over `dbs`.
struct StoreTotals {
  std::size_t points = 0;
  std::size_t resident_bytes = 0;  ///< column + dictionary bytes
  std::uint64_t run_seals = 0;
  std::uint64_t run_folds = 0;
  std::uint64_t pack_time_ns = 0;
  std::uint64_t index_probes = 0;
  std::size_t bytes_raw = 0;     ///< packed runs, raw-equivalent
  std::size_t bytes_packed = 0;  ///< packed runs, packed
  std::size_t column_bytes = 0;

  /// Adds one measured phase's seal/fold/pack work; the byte fields take
  /// the values at the phase's end.
  void add_phase(const StoreTotals& before, const StoreTotals& after);
};
StoreTotals store_totals(
    const std::vector<const pmove::tsdb::TimeSeriesDb*>& dbs);

/// Sets tsdb.run_seals / run_folds / packed_ratio and the report-only
/// tsdb.pack_ms from the phases summed in `phases`.
void set_store_layer(const StoreTotals& phases, Result& r);

}  // namespace pb
