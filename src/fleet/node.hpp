// One fleet member: a node-local ingest engine + storage + health.
//
// A FleetNode is the per-machine half of the paper's cluster-level P-MoVE:
// the sharded/batched/backpressured IngestEngine (writing into the node's
// own columnar TimeSeriesDb), the node's HealthRegistry, and its
// FleetHealthTable — the node's own view of everyone else's health, filled
// by gossip.  The router writes into it, the scatter path queries it, and
// the gossip coordinator swaps its table with peers.
//
// In-process today: the node is a plain object and "RPC" is a method call
// through the Transport seam.  Everything a real deployment would move
// across the wire (point batches, typed queries, digests) is already a
// value type for that reason.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/health.hpp"
#include "ingest/engine.hpp"
#include "query/plan.hpp"
#include "query/query.hpp"
#include "tsdb/db.hpp"
#include "util/status.hpp"

namespace pmove::fleet {

/// A node's answer to a fully evaluated (pushdown) scatter query.
struct NodePartial {
  /// Points that matched locally — lets the gather distinguish "no rows
  /// matched" (row time 0, NaN aggregates) from "rows matched but the
  /// selected field was absent" when merging aggregate rows.
  std::size_t matched = 0;
  tsdb::QueryResult result;
};

struct NodeOptions {
  /// Ingest shards per node; 1 keeps a 100-node fleet at 100 worker
  /// threads.  Queue units are batches (IngestOptions::queue_capacity).
  int ingest_shards = 1;
  std::size_t queue_capacity = 256;
  ingest::BackpressurePolicy policy = ingest::BackpressurePolicy::kBlock;
  /// Borrowed health registry (a cluster daemon's); the node owns its own
  /// registry when null.  Must outlive the node.
  HealthRegistry* health = nullptr;
  /// Injected time source for the ingest tier (nullptr = wall clock).
  const Clock* clock = nullptr;
};

class FleetNode {
 public:
  explicit FleetNode(std::string name, NodeOptions options = {});
  ~FleetNode();

  FleetNode(const FleetNode&) = delete;
  FleetNode& operator=(const FleetNode&) = delete;

  Status open();
  void close();

  [[nodiscard]] const std::string& name() const { return name_; }

  // ---------------------------------------------------------- write path
  /// Hands the sub-batch to the node's ingest engine (queued; flush() for
  /// visibility).
  Status write_batch(std::vector<tsdb::Point> batch);
  /// Drains the node's ingest queues into storage.
  Status flush();

  // ----------------------------------------------------------- read path
  /// Raw matching points for the exact (order-reconstructing) gather, in
  /// local (time, arrival) order.  not_found when the measurement has
  /// never been written here.
  [[nodiscard]] Expected<std::vector<tsdb::Point>> collect(
      const query::Query& q) const;

  /// Full local evaluation with the shared evaluator (pushdown gather).
  [[nodiscard]] Expected<NodePartial> execute(const query::Query& q) const;

  // -------------------------------------------------------------- health
  [[nodiscard]] HealthRegistry& health() { return *health_; }
  [[nodiscard]] const HealthRegistry& health() const { return *health_; }

  /// Refreshes this node's own digest (version bump) into its table.
  void refresh_digest(TimeNs now);

  /// Gossip receive: merges the offered digests, returns this node's full
  /// table (the anti-entropy reply).  Thread-safe: in wire mode concurrent
  /// server connections land here while the gossip loop runs.
  std::vector<NodeDigest> exchange(const std::vector<NodeDigest>& offered);

  /// Thread-safe copy of the node's table (the gossip offer).
  [[nodiscard]] std::vector<NodeDigest> table_snapshot() const;

  // ------------------------------------------------------- introspection
  [[nodiscard]] tsdb::TimeSeriesDb& db() { return db_; }
  [[nodiscard]] const tsdb::TimeSeriesDb& db() const { return db_; }
  [[nodiscard]] ingest::IngestEngine& engine() { return *engine_; }
  [[nodiscard]] std::size_t point_count() const { return db_.point_count(); }

 private:
  std::string name_;
  NodeOptions options_;
  tsdb::TimeSeriesDb db_;
  std::unique_ptr<HealthRegistry> owned_health_;
  HealthRegistry* health_ = nullptr;  ///< owned_health_ or borrowed
  std::unique_ptr<ingest::IngestEngine> engine_;  ///< writes into db_

  /// Guards digest_version_ and table_: wire-mode server workers call
  /// exchange() concurrently with the gossip coordinator's refresh/offer.
  mutable std::mutex gossip_mutex_;
  std::uint64_t digest_version_ = 0;
  FleetHealthTable table_;
};

}  // namespace pmove::fleet
