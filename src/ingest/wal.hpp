// Append-only write-ahead log for ingestion batches.
//
// The paper's PCP pipeline acknowledges nothing and loses whatever arrives
// while it is busy (Table III).  The ingest tier instead appends every
// acknowledged batch here before it is queued, so a crash between
// acknowledgment and DB insertion loses nothing: recovery replays the log.
//
// Layout: <dir>/wal-<seq>.seg, each segment a sequence of records
//
//   [u32 magic][u32 payload_len][u32 crc32(payload)][payload bytes]
//
// A payload is one batch as newline-separated line protocol.  For
// IngestEngine::submit_lines it is the submitted text verbatim (blank
// lines, CRLF and number spellings included; every line already parsed);
// for submit(Batch) it is the points rendered with Point::to_line().
// Recovery parses either with Point::from_line and rebuilds the same points.
// A record holds at most 64 MiB of payload: append() refuses a larger one
// with kOutOfRange and writes nothing, since recovery would read its length
// as corruption.
//
// Segments rotate at segment_bytes; recovery scans segments in sequence
// order, validates every record's CRC, truncates a torn/corrupt tail record
// and discards anything after it.  checkpoint() deletes all segments once
// their contents are durable elsewhere (e.g. after TimeSeriesDb::
// dump_to_file or retention enforcement made them obsolete).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/registry.hpp"
#include "util/status.hpp"

namespace pmove::ingest {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
std::uint32_t crc32(std::string_view data);

struct WalOptions {
  std::string dir;
  std::size_t segment_bytes = 1u << 20;
  /// fsync after every append (durability vs throughput knob).
  bool sync_each_append = false;
};

struct WalRecoveryStats {
  std::size_t segments = 0;         ///< segment files found
  std::size_t records = 0;          ///< valid records recovered
  std::size_t truncated_bytes = 0;  ///< bytes cut off a torn/corrupt tail
};

class Wal {
 public:
  Wal() = default;
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating the directory if needed), validates existing segments
  /// and positions the append cursor after the last valid record.
  Status open(WalOptions options);

  /// Invokes `apply` on every valid record payload, in append order.
  Status replay(const std::function<Status(std::string_view)>& apply) const;

  /// Appends one record; returns its log sequence number.  The record is
  /// on disk (modulo OS cache; see sync_each_append) when this returns.
  /// A payload over the 64 MiB record limit is refused (kOutOfRange)
  /// before anything is written.
  /// Safe to call from concurrent producers; records serialize internally.
  Expected<std::uint64_t> append(std::string_view payload);

  /// Drops every segment: all logged data is durable elsewhere.  The next
  /// append starts a fresh segment.
  Status checkpoint();

  void close();

  [[nodiscard]] bool is_open() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return file_ != nullptr;
  }
  [[nodiscard]] const WalRecoveryStats& recovery() const { return recovery_; }
  [[nodiscard]] std::uint64_t record_count() const {
    return record_count_.load();
  }
  [[nodiscard]] std::uint64_t bytes_appended() const {
    return bytes_appended_.load();
  }
  [[nodiscard]] std::size_t segment_count() const;

 private:
  [[nodiscard]] std::string segment_path(std::uint64_t seq) const;
  /// Sorted sequence numbers of existing segment files.
  [[nodiscard]] std::vector<std::uint64_t> list_segments() const;
  Status open_segment(std::uint64_t seq, bool truncate);

  /// Serializes append/rotate/checkpoint/close across producer threads.
  mutable std::mutex mutex_;
  WalOptions options_;
  std::FILE* file_ = nullptr;
  std::uint64_t current_seq_ = 0;
  std::size_t current_bytes_ = 0;
  /// Valid records across all segments / payload bytes appended this run.
  /// Atomic so stats reads don't take the append lock.
  std::atomic<std::uint64_t> record_count_{0};
  std::atomic<std::uint64_t> bytes_appended_{0};
  WalRecoveryStats recovery_;

  // pmove_wal self-telemetry (instance "wal"), acquired on open().  The
  // records gauge doubles as checkpoint lag: records appended since the
  // last checkpoint dropped all segments.
  metrics::Counter* m_appends_ = nullptr;
  metrics::Counter* m_append_failures_ = nullptr;
  metrics::Counter* m_fsyncs_ = nullptr;
  metrics::Counter* m_rollbacks_ = nullptr;
  metrics::Counter* m_checkpoints_ = nullptr;
  metrics::Gauge* m_records_ = nullptr;
};

}  // namespace pmove::ingest
