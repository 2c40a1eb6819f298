#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "fault/fault.hpp"
#include "ingest/aggregate.hpp"
#include "ingest/engine.hpp"
#include "ingest/ring_buffer.hpp"
#include "ingest/wal.hpp"
#include "query/plan.hpp"
#include "sampler/session.hpp"
#include "support/reference_line_protocol.hpp"
#include "topology/machine.hpp"
#include "tsdb/batch.hpp"
#include "tsdb/db.hpp"

namespace pmove::ingest {
namespace {

namespace fs = std::filesystem;

/// CI chaos mode: PMOVE_FAULT in the environment arms the fault registry
/// for the whole suite, so every zero-loss assertion below also proves the
/// resilience tier absorbs the injected failures.
const bool kEnvFaultsArmed = [] {
  const char* spec = std::getenv("PMOVE_FAULT");
  if (spec != nullptr && *spec != '\0') {
    if (Status s = fault::arm_from_spec(spec); !s.is_ok()) {
      std::fprintf(stderr, "PMOVE_FAULT rejected: %s\n",
                   s.message().c_str());
    }
  }
  return true;
}();

tsdb::Point make_point(std::string measurement, TimeNs t, double value,
                       std::string tag = "") {
  tsdb::Point p;
  p.measurement = std::move(measurement);
  p.time = t;
  p.fields["value"] = value;
  if (!tag.empty()) p.tags["tag"] = std::move(tag);
  return p;
}

/// Unique scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& label) {
    static std::atomic<int> counter{0};
    path = (fs::temp_directory_path() /
            ("pmove_ingest_" + label + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// -------------------------------------------------------------- ring buffer

TEST(BoundedQueueTest, TryPushFailureLeavesItemIntact) {
  BoundedQueue<std::vector<int>> queue(1);
  std::vector<int> first = {1, 2, 3};
  ASSERT_TRUE(queue.try_push(std::move(first)));
  std::vector<int> second = {4, 5, 6};
  ASSERT_FALSE(queue.try_push(std::move(second)));
  // The failed push must not have consumed the batch — this is what lets
  // the engine fall back to block or spill without losing points.
  EXPECT_EQ(second.size(), 3u);
  ASSERT_FALSE(queue.push_wait(std::move(second), 1'000'000));
  EXPECT_EQ(second.size(), 3u);
}

TEST(BoundedQueueTest, PopAllDrainsInOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.try_push(int(i)));
  auto drained = queue.pop_all(0);
  ASSERT_EQ(drained.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(drained[i], i);
}

TEST(BoundedQueueTest, CloseWakesWaiters) {
  BoundedQueue<int> queue(1);
  std::thread closer([&queue] { queue.close(); });
  auto drained = queue.pop_all(-1);  // must not hang
  closer.join();
  EXPECT_TRUE(drained.empty());
  EXPECT_TRUE(queue.is_closed());
  EXPECT_FALSE(queue.try_push(7));
}

// ---------------------------------------------------------------- sharding

TEST(IngestEngineTest, ShardRoutingIsDeterministicAndSeriesSticky) {
  IngestOptions options;
  options.shard_count = 8;
  IngestEngine engine(options);
  // Same (measurement, tags) always lands on the same shard, regardless of
  // time and field values.
  for (int series = 0; series < 32; ++series) {
    const std::string tag = "series" + std::to_string(series);
    const int expected =
        engine.shard_of(make_point("cycles", 0, 0.0, tag));
    for (int i = 1; i < 10; ++i) {
      EXPECT_EQ(engine.shard_of(make_point("cycles", i * 1000, 3.14 * i, tag)),
                expected);
    }
  }
  // Different measurements must not all collapse onto one shard.
  std::vector<bool> hit(8, false);
  for (int m = 0; m < 64; ++m) {
    hit[static_cast<std::size_t>(engine.shard_of(
        make_point("m" + std::to_string(m), 0, 0.0)))] = true;
  }
  int used = 0;
  for (bool h : hit) used += h ? 1 : 0;
  EXPECT_GE(used, 4);
}

TEST(IngestEngineTest, ShardedQueryMatchesSingleDb) {
  IngestOptions options;
  options.shard_count = 4;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  tsdb::TimeSeriesDb reference;
  for (int i = 0; i < 200; ++i) {
    auto p = make_point("cycles", i * 10, static_cast<double>(i % 17),
                        "t" + std::to_string(i % 5));
    ASSERT_TRUE(reference.write(p).is_ok());
    ASSERT_TRUE(engine.write(std::move(p)).is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.point_count(), reference.point_count());
  for (const char* query :
       {"SELECT * FROM \"cycles\"",
        "SELECT mean(\"value\"), stddev(\"value\") FROM \"cycles\"",
        "SELECT max(\"value\") FROM \"cycles\" WHERE tag=\"t3\"",
        "SELECT count(\"value\") FROM \"cycles\" WHERE time >= 500 AND "
        "time <= 1500"}) {
    auto sharded = pmove::query::run(engine.db(), query);
    auto single = pmove::query::run(reference, query);
    ASSERT_TRUE(sharded.has_value()) << query;
    ASSERT_TRUE(single.has_value()) << query;
    EXPECT_EQ(sharded->columns, single->columns) << query;
    ASSERT_EQ(sharded->rows.size(), single->rows.size()) << query;
    for (std::size_t r = 0; r < single->rows.size(); ++r) {
      ASSERT_EQ(sharded->rows[r].size(), single->rows[r].size());
      for (std::size_t c = 0; c < single->rows[r].size(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sharded->rows[r][c]),
                  std::bit_cast<std::uint64_t>(single->rows[r][c]))
            << query << " row " << r << " col " << c;
      }
    }
  }
  engine.close();
}

// --------------------------------------------------------------------- WAL

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir("roundtrip");
  WalOptions options;
  options.dir = dir.path;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(options).is_ok());
    for (int i = 0; i < 50; ++i) {
      auto lsn = wal.append("record-" + std::to_string(i));
      ASSERT_TRUE(lsn.has_value());
      EXPECT_EQ(lsn.value(), static_cast<std::uint64_t>(i));
    }
  }  // destructor = crash without checkpoint
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  EXPECT_EQ(wal.recovery().records, 50u);
  std::vector<std::string> payloads;
  ASSERT_TRUE(wal.replay([&payloads](std::string_view payload) {
                   payloads.emplace_back(payload);
                   return Status::ok();
                 })
                  .is_ok());
  ASSERT_EQ(payloads.size(), 50u);
  EXPECT_EQ(payloads.front(), "record-0");
  EXPECT_EQ(payloads.back(), "record-49");
}

TEST(WalTest, SegmentsRotate) {
  TempDir dir("rotate");
  WalOptions options;
  options.dir = dir.path;
  options.segment_bytes = 256;  // force frequent rotation
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(wal.append(std::string(64, 'x')).has_value());
  }
  EXPECT_GT(wal.segment_count(), 5u);
  std::size_t replayed = 0;
  ASSERT_TRUE(wal.replay([&replayed](std::string_view) {
                   ++replayed;
                   return Status::ok();
                 })
                  .is_ok());
  EXPECT_EQ(replayed, 40u);
}

TEST(WalTest, TruncatedTailIsDiscarded) {
  TempDir dir("torn");
  WalOptions options;
  options.dir = dir.path;
  std::string segment;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(options).is_ok());
    ASSERT_TRUE(wal.append("complete-1").has_value());
    ASSERT_TRUE(wal.append("complete-2").has_value());
    ASSERT_TRUE(wal.append("will-be-torn").has_value());
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    segment = entry.path().string();
  }
  ASSERT_FALSE(segment.empty());
  // Chop mid-record: simulate a crash during the last append.
  fs::resize_file(segment, fs::file_size(segment) - 5);
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  EXPECT_EQ(wal.recovery().records, 2u);
  EXPECT_GT(wal.recovery().truncated_bytes, 0u);
  std::vector<std::string> payloads;
  ASSERT_TRUE(wal.replay([&payloads](std::string_view payload) {
                   payloads.emplace_back(payload);
                   return Status::ok();
                 })
                  .is_ok());
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads.back(), "complete-2");
  // The log stays usable after truncation.
  ASSERT_TRUE(wal.append("post-recovery").has_value());
}

TEST(WalTest, CorruptMiddleRecordCutsHistoryThere) {
  TempDir dir("corrupt");
  WalOptions options;
  options.dir = dir.path;
  std::string segment;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(options).is_ok());
    ASSERT_TRUE(wal.append("good").has_value());
    ASSERT_TRUE(wal.append("to-be-corrupted").has_value());
    ASSERT_TRUE(wal.append("after-corruption").has_value());
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    segment = entry.path().string();
  }
  // Flip one payload byte of the middle record (headers are 12 bytes;
  // record 1 payload starts at 12 + 4 + 12 = 28).
  std::FILE* f = std::fopen(segment.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 28 + 3, SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  // CRC catches the corruption; everything from that record on is dropped
  // (history must stay a prefix).
  EXPECT_EQ(wal.recovery().records, 1u);
  std::vector<std::string> payloads;
  ASSERT_TRUE(wal.replay([&payloads](std::string_view payload) {
                   payloads.emplace_back(payload);
                   return Status::ok();
                 })
                  .is_ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads.front(), "good");
}

TEST(WalTest, CheckpointDropsSegments) {
  TempDir dir("checkpoint");
  WalOptions options;
  options.dir = dir.path;
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  ASSERT_TRUE(wal.append("before").has_value());
  ASSERT_TRUE(wal.checkpoint().is_ok());
  std::size_t replayed = 0;
  ASSERT_TRUE(wal.replay([&replayed](std::string_view) {
                   ++replayed;
                   return Status::ok();
                 })
                  .is_ok());
  EXPECT_EQ(replayed, 0u);
  ASSERT_TRUE(wal.append("after").has_value());
}

TEST(WalTest, Crc32KnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

TEST(WalTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(0xc3c32u);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    // The bit-at-a-time definition, advanced one byte per length, gives
    // the reference CRC of every prefix.
    std::uint32_t state = 0xFFFF'FFFFu;
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(crc32(data), state ^ 0xFFFF'FFFFu)
          << "offset " << offset << " length " << len;
      if (len == 4096) break;
      state ^= static_cast<unsigned char>(data.data()[len]);
      for (int k = 0; k < 8; ++k) {
        state = (state & 1u) ? 0xEDB8'8320u ^ (state >> 1) : state >> 1;
      }
    }
  }
}

TEST(WalTest, OversizedRecordIsRefusedAndHistorySurvives) {
  TempDir dir("oversized");
  WalOptions options;
  options.dir = dir.path;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(options).is_ok());
    ASSERT_TRUE(wal.append("before").has_value());
    // One byte over the 64 MiB record limit: recovery would read the
    // length as corruption and cut the log here, so nothing may be written.
    const auto oversized = wal.append(std::string((64u << 20) + 1, 'x'));
    ASSERT_FALSE(oversized.has_value());
    EXPECT_EQ(oversized.status().code(), ErrorCode::kOutOfRange);
    ASSERT_TRUE(wal.append("after").has_value());
    EXPECT_EQ(wal.record_count(), 2u);
  }
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  EXPECT_EQ(wal.recovery().records, 2u);
  EXPECT_EQ(wal.recovery().truncated_bytes, 0u);
  std::vector<std::string> payloads;
  ASSERT_TRUE(wal.replay([&payloads](std::string_view payload) {
                   payloads.emplace_back(payload);
                   return Status::ok();
                 })
                  .is_ok());
  EXPECT_EQ(payloads, (std::vector<std::string>{"before", "after"}));
}

// -------------------------------------------------------- crash + recovery

TEST(IngestEngineTest, RecoveryRestoresEveryAcknowledgedBatch) {
  TempDir dir("engine_recovery");
  IngestOptions options;
  options.shard_count = 3;
  options.wal_dir = dir.path;
  std::size_t acknowledged = 0;
  {
    IngestEngine engine(options);
    ASSERT_TRUE(engine.open().is_ok());
    for (int b = 0; b < 20; ++b) {
      std::vector<tsdb::Point> batch;
      for (int i = 0; i < 5; ++i) {
        batch.push_back(make_point("cycles", b * 100 + i,
                                   static_cast<double>(b * 5 + i),
                                   "t" + std::to_string(i)));
      }
      ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
      acknowledged += 5;
    }
    // No flush, no close: simulate the process dying with batches possibly
    // still queued.  The WAL already has them.
  }
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  EXPECT_EQ(recovered.stats().recovered_points, acknowledged);
  EXPECT_EQ(recovered.point_count(), acknowledged);
  auto result = pmove::query::run(recovered.db(),
                                  "SELECT count(\"value\") FROM \"cycles\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result->rows[0][1], static_cast<double>(acknowledged));
  recovered.close();
}

TEST(IngestEngineTest, RecoverySurvivesTornLastBatch) {
  TempDir dir("engine_torn");
  IngestOptions options;
  options.shard_count = 2;
  options.wal_dir = dir.path;
  {
    IngestEngine engine(options);
    ASSERT_TRUE(engine.open().is_ok());
    for (int b = 0; b < 10; ++b) {
      ASSERT_TRUE(
          engine.submit({make_point("m", b, static_cast<double>(b))})
              .is_ok());
    }
  }
  // Tear the tail of the (only) segment.
  std::string segment;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    segment = entry.path().string();
  }
  fs::resize_file(segment, fs::file_size(segment) - 3);
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  // The torn batch is gone, every fully-written one is back.
  EXPECT_EQ(recovered.point_count(), 9u);
  recovered.close();
}

TEST(IngestEngineTest, CheckpointSnapshotsAndRecoveryAvoidsDuplicates) {
  TempDir dir("engine_checkpoint");
  IngestOptions options;
  options.shard_count = 2;
  options.wal_dir = dir.path;
  {
    IngestEngine engine(options);
    ASSERT_TRUE(engine.open().is_ok());
    for (int b = 0; b < 10; ++b) {
      ASSERT_TRUE(engine
                      .submit({make_point("m", b, static_cast<double>(b),
                                          "t" + std::to_string(b % 3))})
                      .is_ok());
    }
    ASSERT_TRUE(engine.checkpoint().is_ok());
    EXPECT_EQ(engine.stats().checkpoints, 1u);
    // The log is truncated down to one fresh, empty segment; the snapshots
    // carry the 10 points.
    EXPECT_EQ(engine.wal().segment_count(), 1u);
    EXPECT_TRUE(fs::exists(fs::path(dir.path) / "checkpoint.lp"));
    // More traffic after the checkpoint lands only in the fresh log.
    for (int b = 10; b < 14; ++b) {
      ASSERT_TRUE(engine
                      .submit({make_point("m", b, static_cast<double>(b))})
                      .is_ok());
    }
    // Crash: no flush, no close.
  }
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  // Snapshot (10) + replayed tail (4), each exactly once.
  EXPECT_EQ(recovered.point_count(), 14u);
  EXPECT_EQ(recovered.stats().recovered_points, 14u);
  auto result =
      pmove::query::run(recovered.db(), "SELECT count(\"value\") FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->rows[0][1], 14.0);
  recovered.close();
}

TEST(IngestEngineTest, CheckpointAndRecoveryWithPackedRuns) {
  // The checkpoint snapshot is rendered through SeriesViews, so a sink DB
  // whose runs are compressed must dump — and recover — exactly like the
  // raw layout.
  TempDir dir("engine_packed_ckpt");
  IngestOptions options;
  options.shard_count = 1;
  options.wal_dir = dir.path;
  const auto tune = [](tsdb::TimeSeriesDb& db) {
    tsdb::RunConfig rc;
    rc.seal_rows = 128;
    db.set_run_config(rc);
    tsdb::PackConfig pc;
    pc.min_rows = 64;
    db.set_pack_config(pc);
  };
  tsdb::TimeSeriesDb sink;
  tune(sink);
  {
    IngestEngine engine(options, &sink);
    ASSERT_TRUE(engine.open().is_ok());
    std::vector<tsdb::Point> batch;
    for (int i = 0; i < 600; ++i) {
      batch.push_back(make_point("m", i * 10, static_cast<double>(i % 256)));
      if (batch.size() == 100) {
        ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
        batch.clear();
      }
    }
    ASSERT_TRUE(engine.flush().is_ok());
    sink.compact();
    ASSERT_GT(sink.stats().compressed_runs, 0u);
    ASSERT_TRUE(engine.checkpoint().is_ok());
    // Post-checkpoint tail, then crash (no flush, no close).
    ASSERT_TRUE(engine.submit({make_point("m", 6000, 1.0),
                               make_point("m", 6010, 2.0)})
                    .is_ok());
  }
  tsdb::TimeSeriesDb recovered_sink;
  tune(recovered_sink);
  // External mode: the sink's owner restores the snapshot (open() replays
  // only the post-checkpoint WAL tail).
  ASSERT_TRUE(
      recovered_sink.load_from_file(dir.path + "/checkpoint.lp").is_ok());
  IngestEngine recovered(options, &recovered_sink);
  ASSERT_TRUE(recovered.open().is_ok());
  EXPECT_EQ(recovered.point_count(), 602u);
  auto result = pmove::query::run(
      recovered.db(), "SELECT count(\"value\"), sum(\"value\") FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->rows[0][1], 602.0);
  recovered.close();
}

TEST(IngestEngineTest, FlushAutoCheckpointsPastSegmentBudget) {
  TempDir dir("engine_autockpt");
  IngestOptions options;
  options.shard_count = 1;
  options.wal_dir = dir.path;
  options.wal_segment_bytes = 128;  // force rotation every few batches
  options.wal_max_segments = 2;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  for (int b = 0; b < 30; ++b) {
    ASSERT_TRUE(
        engine.submit({make_point("m", b, static_cast<double>(b))}).is_ok());
  }
  ASSERT_GT(engine.wal().segment_count(), 2u);
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_GE(engine.stats().checkpoints, 1u);
  EXPECT_EQ(engine.wal().segment_count(), 1u);  // only the fresh segment
  // Nothing acknowledged was lost to the truncation.
  EXPECT_EQ(engine.point_count(), 30u);
  engine.close();
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  EXPECT_EQ(recovered.point_count(), 30u);
  recovered.close();
}

TEST(IngestEngineTest, CheckpointWithoutWalIsANoop) {
  IngestEngine engine(IngestOptions{});
  ASSERT_TRUE(engine.open().is_ok());
  ASSERT_TRUE(engine.submit({make_point("m", 1, 1.0)}).is_ok());
  ASSERT_TRUE(engine.checkpoint().is_ok());
  EXPECT_EQ(engine.stats().checkpoints, 0u);
  engine.close();
}

TEST(IngestEngineTest, ExternalModeCheckpointLeavesRestoreToOwner) {
  TempDir dir("engine_external_ckpt");
  tsdb::TimeSeriesDb shared;
  IngestOptions options;
  options.shard_count = 2;
  options.wal_dir = dir.path;
  {
    IngestEngine engine(options, &shared);
    ASSERT_TRUE(engine.open().is_ok());
    for (int b = 0; b < 6; ++b) {
      ASSERT_TRUE(engine
                      .submit({make_point("m", b, static_cast<double>(b))})
                      .is_ok());
    }
    ASSERT_TRUE(engine.checkpoint().is_ok());
    // Snapshot written for disaster recovery, WAL truncated.
    EXPECT_TRUE(fs::exists(fs::path(dir.path) / "checkpoint.lp"));
    EXPECT_EQ(engine.wal().segment_count(), 1u);
    ASSERT_TRUE(
        engine.submit({make_point("m", 6, 6.0)}).is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
    engine.close();
  }
  EXPECT_EQ(shared.point_count(), 7u);
  // A fresh engine over a restored owner DB replays only the tail — the
  // snapshot is NOT auto-loaded, so owner-restored state never doubles.
  tsdb::TimeSeriesDb restored;
  ASSERT_TRUE(restored.load_from_file(
                          (fs::path(dir.path) / "checkpoint.lp").string())
                  .is_ok());
  IngestEngine reopened(options, &restored);
  ASSERT_TRUE(reopened.open().is_ok());
  EXPECT_EQ(restored.point_count(), 7u);  // 6 snapshot + 1 tail, no dupes
  reopened.close();
}

TEST(IngestEngineTest, CheckpointRestoresAcrossShardCountChange) {
  // An engine that owns its DB snapshots it to one checkpoint.lp, so the
  // restore does not depend on the shard count the snapshot was taken with.
  for (const int reopen_shards : {2, 8}) {
    SCOPED_TRACE("reopen with " + std::to_string(reopen_shards) + " shards");
    TempDir dir("engine_reshard");
    IngestOptions options;
    options.shard_count = 4;
    options.wal_dir = dir.path;
    {
      IngestEngine engine(options);
      ASSERT_TRUE(engine.open().is_ok());
      for (int i = 0; i < 45; ++i) {
        // Points 40..44 are the post-checkpoint WAL tail.
        if (i == 40) ASSERT_TRUE(engine.checkpoint().is_ok());
        ASSERT_TRUE(engine
                        .submit({make_point("m", i, static_cast<double>(i),
                                            "t" + std::to_string(i))})
                        .is_ok());
      }
      // Crash: no flush, no close.
    }
    std::vector<std::string> snapshots;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("checkpoint", 0) == 0) snapshots.push_back(name);
    }
    EXPECT_EQ(snapshots, std::vector<std::string>{"checkpoint.lp"});

    options.shard_count = reopen_shards;
    IngestEngine recovered(options);
    ASSERT_TRUE(recovered.open().is_ok());
    EXPECT_EQ(recovered.point_count(), 45u);
    EXPECT_EQ(recovered.stats().recovered_points, 45u);
    auto result = pmove::query::run(
        recovered.db(), "SELECT count(\"value\"), sum(\"value\") FROM \"m\"");
    ASSERT_TRUE(result.has_value());
    EXPECT_DOUBLE_EQ(result->rows[0][1], 45.0);
    EXPECT_DOUBLE_EQ(result->rows[0][2], 44.0 * 45.0 / 2.0);
    recovered.close();
  }
}

// ------------------------------------------------------------ backpressure

TEST(IngestEngineTest, DropPolicyCountsLossesAndReportsUnavailable) {
  IngestOptions options;
  options.shard_count = 1;
  options.queue_capacity = 1;
  options.policy = BackpressurePolicy::kDrop;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  // Saturate: with a capacity-1 queue and batches of 100 points, some
  // submissions must hit a full queue.
  bool saw_unavailable = false;
  for (int b = 0; b < 200; ++b) {
    std::vector<tsdb::Point> batch;
    for (int i = 0; i < 100; ++i) {
      batch.push_back(
          make_point("m", b * 1000 + i, static_cast<double>(i)));
    }
    Status s = engine.submit(std::move(batch));
    saw_unavailable = saw_unavailable || s.code() == ErrorCode::kUnavailable;
  }
  ASSERT_TRUE(engine.flush().is_ok());
  const IngestStats stats = engine.stats();
  EXPECT_EQ(stats.submitted_points, 20'000u);
  EXPECT_EQ(stats.inserted_points + stats.dropped_points, 20'000u);
  if (stats.dropped_points > 0) {
    EXPECT_TRUE(saw_unavailable);
    EXPECT_EQ(engine.point_count(),
              static_cast<std::size_t>(stats.inserted_points));
  }
  engine.close();
}

TEST(IngestEngineTest, TrySubmitNeverBlocks) {
  IngestOptions options;
  options.shard_count = 1;
  options.queue_capacity = 1;
  options.policy = BackpressurePolicy::kBlock;  // try_submit must override
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  int rejected = 0;
  for (int b = 0; b < 100; ++b) {
    std::vector<tsdb::Point> batch;
    for (int i = 0; i < 200; ++i) {
      batch.push_back(make_point("m", b * 1000 + i, 1.0));
    }
    if (!engine.try_submit(std::move(batch)).is_ok()) ++rejected;
  }
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.stats().inserted_points + engine.stats().dropped_points,
            20'000u);
  engine.close();
}

TEST(IngestEngineTest, ValidationRejectsBadPointsBeforeAck) {
  IngestEngine engine(IngestOptions{});
  ASSERT_TRUE(engine.open().is_ok());
  tsdb::Point no_fields;
  no_fields.measurement = "m";
  EXPECT_EQ(engine.submit({no_fields}).code(), ErrorCode::kInvalidArgument);
  tsdb::Point no_measurement;
  no_measurement.fields["v"] = 1.0;
  EXPECT_EQ(engine.submit({no_measurement}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().submitted_points, 0u);
  engine.close();
}

TEST(IngestEngineTest, BlockModeStressLosesNothing) {
  IngestOptions options;
  options.shard_count = 4;
  options.queue_capacity = 2;  // tiny queues: force constant contention
  options.policy = BackpressurePolicy::kBlock;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  constexpr int kProducers = 8;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 40;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<tsdb::Point> batch;
        batch.reserve(kPerBatch);
        for (int i = 0; i < kPerBatch; ++i) {
          batch.push_back(make_point(
              "stress", (p * kBatches + b) * 100 + i,
              static_cast<double>(i), "producer" + std::to_string(p)));
        }
        ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(engine.flush().is_ok());
  const auto total =
      static_cast<std::size_t>(kProducers) * kBatches * kPerBatch;
  EXPECT_EQ(engine.stats().dropped_points, 0u);
  EXPECT_EQ(engine.stats().inserted_points, total);
  EXPECT_EQ(engine.point_count(), total);
  engine.close();
}

TEST(IngestEngineTest, SpillModeStressLosesNothing) {
  TempDir dir("spill_stress");
  IngestOptions options;
  options.shard_count = 2;
  options.queue_capacity = 1;
  options.policy = BackpressurePolicy::kSpill;
  options.wal_dir = dir.path;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  constexpr int kProducers = 4;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 25;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<tsdb::Point> batch;
        for (int i = 0; i < kPerBatch; ++i) {
          batch.push_back(make_point(
              "spill", (p * kBatches + b) * 100 + i, 1.0,
              "producer" + std::to_string(p)));
        }
        ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(engine.flush().is_ok());
  const auto total =
      static_cast<std::size_t>(kProducers) * kBatches * kPerBatch;
  EXPECT_EQ(engine.stats().dropped_points, 0u);
  EXPECT_EQ(engine.point_count(), total);
  engine.close();
}

TEST(IngestEngineTest, SpillPolicyRequiresWal) {
  IngestOptions options;
  options.policy = BackpressurePolicy::kSpill;
  IngestEngine engine(options);
  EXPECT_EQ(engine.open().code(), ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------ continuous queries

TEST(IngestEngineTest, ContinuousQueryDownsamplesWithoutRescan) {
  IngestOptions options;
  options.shard_count = 2;
  IngestEngine engine(options);
  ContinuousQuery cq;
  cq.source_measurement = "cycles";
  cq.aggregate = "mean";
  cq.window_ns = kNsPerSec;
  ASSERT_TRUE(engine.register_continuous_query(std::move(cq)).is_ok());
  ASSERT_TRUE(engine.open().is_ok());
  // 3 windows x 4 points each, one series; values are window*10 + i.
  std::vector<tsdb::Point> batch;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 4; ++i) {
      batch.push_back(make_point(
          "cycles", w * kNsPerSec + i * (kNsPerSec / 8),
          static_cast<double>(w * 10 + i), "job1"));
    }
  }
  ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
  // Watermark past windows 0 and 1 only.
  ASSERT_TRUE(engine.close_windows(2 * kNsPerSec).is_ok());
  auto result = pmove::query::run(
      engine.db(), "SELECT * FROM \"cycles_mean_1000000000ns\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 2u);
  // mean of {0,1,2,3} = 1.5 and {10,11,12,13} = 11.5.
  EXPECT_DOUBLE_EQ(result->rows[0][1], 1.5);
  EXPECT_DOUBLE_EQ(result->rows[1][1], 11.5);
  EXPECT_EQ(engine.stats().downsampled_points, 2u);
  // Window 2 emits once the watermark passes it.
  ASSERT_TRUE(engine.close_windows(3 * kNsPerSec).is_ok());
  result = pmove::query::run(engine.db(),
                             "SELECT * FROM \"cycles_mean_1000000000ns\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows.size(), 3u);
  engine.close();
}

TEST(IngestEngineTest, SeriesAggregatesMatchQueriedStats) {
  IngestOptions options;
  options.shard_count = 4;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine
                    .write(make_point("cycles", i * 10,
                                      static_cast<double>(i), "obs1"))
                    .is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  auto aggregates = engine.series_aggregates("cycles", "obs1");
  ASSERT_EQ(aggregates.count("value"), 1u);
  const FieldAggregate& agg = aggregates.at("value");
  EXPECT_EQ(agg.count, 100u);
  EXPECT_DOUBLE_EQ(agg.min, 0.0);
  EXPECT_DOUBLE_EQ(agg.max, 99.0);
  EXPECT_DOUBLE_EQ(agg.mean(), 49.5);
  auto queried = pmove::query::run(engine.db(),
                                   "SELECT stddev(\"value\") FROM \"cycles\"");
  ASSERT_TRUE(queried.has_value());
  EXPECT_NEAR(agg.stddev(), queried->rows[0][1], 1e-9);
  engine.close();
}

// ------------------------------------------------ adaptive sink deadlines

TEST(IngestEngineTest, AdaptiveSinkDeadlineTracksDeliveryLatency) {
  IngestOptions options;
  options.shard_count = 1;
  IngestEngine engine(options);
  // Cold: no delivery observed yet, so the budget's conservative floor.
  EXPECT_EQ(engine.sink_deadline_ns(0), options.sink_latency_budget.floor_ns);
  ASSERT_TRUE(engine.open().is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        engine.write(make_point("cycles", i * 10, static_cast<double>(i)))
            .is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  // Deliveries happened: the EWMA is live, and a fast in-memory sink stays
  // clamped at the floor (tight budget, no retuning).
  EXPECT_GT(engine.stats().sink_latency_ewma_ns, 0u);
  EXPECT_EQ(engine.sink_deadline_ns(0), options.sink_latency_budget.floor_ns);
  engine.close();
}

TEST(IngestEngineTest, ExplicitSinkDeadlineWinsOverAdaptive) {
  IngestOptions options;
  options.shard_count = 1;
  options.sink_retry.deadline_ns = 123'000'000;
  IngestEngine engine(options);
  EXPECT_EQ(engine.sink_deadline_ns(0), 123'000'000);

  IngestOptions fixed;
  fixed.shard_count = 1;
  fixed.adaptive_sink_deadline = false;
  IngestEngine legacy(fixed);
  EXPECT_EQ(legacy.sink_deadline_ns(0), 0);  // seed behaviour: no deadline
}

// ------------------------------------------------- sampler + external mode

TEST(IngestEngineTest, ExternalModeFrontsSharedDb) {
  tsdb::TimeSeriesDb db;
  IngestOptions options;
  options.shard_count = 2;
  IngestEngine engine(options, &db);
  ASSERT_TRUE(engine.open().is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        engine.write(make_point("m", i, static_cast<double>(i))).is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(db.point_count(), 50u);
  EXPECT_EQ(engine.point_count(), 50u);
  engine.close();
}

TEST(IngestEngineTest, SamplingSessionAtThirtyTwoHzLosesNothingInBlockMode) {
  auto machine = topology::machine_preset("skx").value();
  sampler::SessionConfig config;
  config.frequency_hz = 32.0;
  config.metric_count = 6;
  config.duration_s = 5.0;
  config.transport.mode = sampler::BackpressureMode::kBlock;
  IngestOptions options;
  options.shard_count = 4;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  auto stats = sampler::run_sampling_session(machine, config, &engine);
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(stats.lost(), 0);
  EXPECT_DOUBLE_EQ(stats.loss_pct(), 0.0);
  // Every delivered round became one DB row per metric.
  EXPECT_EQ(engine.point_count(),
            static_cast<std::size_t>(stats.inserted) /
                static_cast<std::size_t>(machine.total_threads()));
  engine.close();
}

TEST(IngestEngineTest, DropModeReproducesTableIIILoss) {
  auto machine = topology::machine_preset("skx").value();
  sampler::SessionConfig config;
  config.frequency_hz = 32.0;
  config.metric_count = 6;
  config.duration_s = 5.0;
  config.transport.mode = sampler::BackpressureMode::kDrop;
  auto stats = sampler::run_sampling_session(machine, config, nullptr);
  EXPECT_GT(stats.loss_plus_zero_pct(), 50.0);
}

// ----------------------------------------------------------- self telemetry

TEST(IngestEngineTest, SelfTelemetryLandsInStorage) {
  IngestEngine engine(IngestOptions{});
  ASSERT_TRUE(engine.open().is_ok());
  ASSERT_TRUE(engine.submit({make_point("m", 1, 2.0)}).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.publish_self_telemetry(kNsPerSec, "obs1").is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  auto result = pmove::query::run(
      engine.db(), "SELECT * FROM \"pmove_ingest\" WHERE tag=\"obs1\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);
  engine.close();
}

TEST(IngestEngineTest, SubmitLinesLogsTextVerbatimAndRecoversSameRows) {
  TempDir dir("verbatim");
  IngestOptions options;
  options.shard_count = 1;
  options.wal_dir = dir.path;
  // Non-canonical spellings that to_line() would never produce: trailing
  // zeros, '+', hex, CRLF, blank lines, escapes, a duplicate field (last
  // wins), tags out of order, padding and no final newline.
  const std::string text =
      "cpu,host=a,tag=x _cpu0=1.50,_cpu1=2.0 100\r\n"
      "\r\n"
      "\n"
      "cpu,tag=x,host=a _cpu1=+3,_cpu0=0x1p3 200\n"
      "cpu\\ load,host=b\\,c value=1e3,value=7 300\n"
      "  cpu,host=a,tag=x _cpu0=.5e1,_cpu1=-0.000 400  \n"
      "cpu,host=a,tag=x _cpu0=4.9e-324,_cpu1=1e400 500";
  std::vector<tsdb::Point> batch = {make_point("mem", 600, 0.1, "y")};
  const std::string rendered = batch[0].to_line() + "\n";

  tsdb::TimeSeriesDb live;
  {
    IngestEngine engine(options, &live);
    ASSERT_TRUE(engine.open().is_ok());
    ASSERT_TRUE(engine.submit_lines(text).is_ok());
    ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
    engine.close();
  }
  EXPECT_EQ(live.point_count(), 6u);

  // The log holds what was sent, and what was rendered for the batch.
  {
    Wal wal;
    WalOptions wal_options;
    wal_options.dir = dir.path;
    ASSERT_TRUE(wal.open(wal_options).is_ok());
    std::vector<std::string> payloads;
    ASSERT_TRUE(wal.replay([&payloads](std::string_view payload) {
                     payloads.emplace_back(payload);
                     return Status::ok();
                   })
                    .is_ok());
    EXPECT_EQ(payloads, (std::vector<std::string>{text, rendered}));
  }

  tsdb::TimeSeriesDb recovered;
  IngestEngine engine(options, &recovered);
  ASSERT_TRUE(engine.open().is_ok());
  EXPECT_EQ(engine.stats().recovered_points, 6u);
  engine.close();
  const std::string live_dump = dir.path + "/live.lp";
  const std::string recovered_dump = dir.path + "/recovered.lp";
  ASSERT_TRUE(live.dump_to_file(live_dump).is_ok());
  ASSERT_TRUE(recovered.dump_to_file(recovered_dump).is_ok());
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string rows = slurp(live_dump);
  EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'), 6);
  EXPECT_EQ(slurp(recovered_dump), rows);
}

TEST(IngestEngineTest, OversizedSubmitIsRefusedWithoutAckOrWalFault) {
  TempDir dir("oversized_submit");
  IngestOptions options;
  options.wal_dir = dir.path;
  {
    IngestEngine engine(options);
    ASSERT_TRUE(engine.open().is_ok());
    ASSERT_TRUE(engine.submit_lines("m,tag=a value=1 1\n").is_ok());
    // One line whose tag value alone passes the 64 MiB record limit.
    const std::string huge =
        "m,tag=" + std::string(64u << 20, 'x') + " value=2 2\n";
    EXPECT_EQ(engine.submit_lines(huge).code(), ErrorCode::kOutOfRange);
    // The log is healthy: the refusal must not count as a WAL failure.
    EXPECT_EQ(engine.stats().wal_failures, 0u);
    ASSERT_TRUE(engine.submit_lines("m,tag=a value=3 3\n").is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
    engine.close();
  }
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  EXPECT_EQ(recovered.stats().recovered_points, 2u);
  EXPECT_EQ(recovered.point_count(), 2u);
  recovered.close();
}

TEST(IngestEngineTest, OversizedSubmitIsNotCountedAsSubmitted) {
  TempDir dir("oversized_accounting");
  IngestOptions options;
  options.wal_dir = dir.path;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  ASSERT_TRUE(engine.submit({make_point("m", 1, 1.0, "a")}).is_ok());
  const std::string huge =
      "m,tag=" + std::string(64u << 20, 'x') + " value=2 2\n";
  EXPECT_EQ(engine.submit_lines(huge).code(), ErrorCode::kOutOfRange);
  ASSERT_TRUE(engine.submit({make_point("m", 3, 3.0, "a")}).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  // Every submitted point is accounted for: the refused one was never
  // acknowledged, so it is neither submitted nor dropped.
  const IngestStats stats = engine.stats();
  EXPECT_EQ(stats.submitted_batches, 2u);
  EXPECT_EQ(stats.submitted_points, 2u);
  EXPECT_EQ(stats.inserted_points, 2u);
  EXPECT_EQ(stats.dropped_points, 0u);
  engine.close();
}

TEST(IngestEngineTest, WalFailureIsNotCountedAsSubmitted) {
  TempDir dir("wal_fail_accounting");
  IngestOptions options;
  options.shard_count = 1;
  options.wal_dir = dir.path;
  options.wal_retry.max_attempts = 2;
  options.wal_retry.initial_backoff_ns = 100'000;  // keep the test fast
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  ASSERT_TRUE(engine.submit({make_point("m", 1, 1.0)}).is_ok());
  // Both append attempts fail: the batch is refused, not acknowledged.
  ASSERT_TRUE(fault::arm_from_spec("wal.append=fail:2").is_ok());
  EXPECT_FALSE(engine.submit({make_point("m", 2, 2.0)}).is_ok());
  fault::disarm("wal.append");
  ASSERT_TRUE(engine.submit({make_point("m", 3, 3.0)}).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  const IngestStats stats = engine.stats();
  EXPECT_EQ(stats.wal_failures, 1u);
  EXPECT_EQ(stats.submitted_batches, 2u);
  EXPECT_EQ(stats.submitted_points, 2u);
  EXPECT_EQ(stats.inserted_points, 2u);
  EXPECT_EQ(engine.point_count(), 2u);
  engine.close();
}

TEST(IngestEngineTest, SubmitLinesDecodesOnce) {
  IngestEngine engine(IngestOptions{});
  ASSERT_TRUE(engine.open().is_ok());
  ASSERT_TRUE(engine
                  .submit_lines("cycles,tag=a value=1 100\n"
                                "cycles,tag=b value=2 200\n\n"
                                "instructions value=3 300\n")
                  .is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.point_count(), 3u);
  EXPECT_EQ(engine.submit_lines("broken line here").code(),
            ErrorCode::kParseError);
  engine.close();
}

// --------------------------------------------------------------- reopen

/// Disarms every fault point for one test, then restores the suite-wide
/// PMOVE_FAULT arming (CI chaos mode) for the tests after it.
struct FaultScope {
  FaultScope() { fault::disarm_all(); }
  ~FaultScope() {
    fault::disarm_all();
    const char* spec = std::getenv("PMOVE_FAULT");
    if (spec != nullptr && *spec != '\0') (void)fault::arm_from_spec(spec);
  }
};

TEST(IngestEngineTest, ReopenAfterCloseKeepsEveryPointOnce) {
  FaultScope faults;
  for (const bool borrowed : {false, true}) {
    SCOPED_TRACE(borrowed ? "borrowed DB" : "owned DB");
    TempDir dir("reopen");
    IngestOptions options;
    options.shard_count = 2;
    options.wal_dir = dir.path;
    tsdb::TimeSeriesDb external;
    IngestEngine engine(options, borrowed ? &external : nullptr);
    ASSERT_TRUE(engine.open().is_ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine
                      .submit({make_point("m", i, static_cast<double>(i),
                                          "t" + std::to_string(i % 3))})
                      .is_ok());
    }
    ASSERT_TRUE(engine.flush().is_ok());
    engine.close();
    ASSERT_TRUE(engine.reopen().is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
    EXPECT_EQ(engine.point_count(), 10u);
    // A checkpoint (an owned DB reloads checkpoint.lp on its first open
    // only) and a second close/open cycle keep the count exact too.
    ASSERT_TRUE(engine.checkpoint().is_ok());
    const Status late = engine.submit({make_point("m", 10, 10.0, "t1")});
    ASSERT_TRUE(late.is_ok()) << late.to_string();
    ASSERT_TRUE(engine.flush().is_ok());
    engine.close();
    ASSERT_TRUE(engine.open().is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
    EXPECT_EQ(engine.point_count(), 11u);
    EXPECT_EQ(engine.stats().inserted_points, 11u);
    engine.close();
  }
}

TEST(IngestEngineTest, ReopenDeliversBatchesAbandonedAtCloseExactlyOnce) {
  FaultScope faults;
  for (const bool borrowed : {false, true}) {
    SCOPED_TRACE(borrowed ? "borrowed DB" : "owned DB");
    TempDir dir("reopen_abandon");
    IngestOptions options;
    options.shard_count = 2;
    options.wal_dir = dir.path;
    options.sink_retry.max_attempts = 1;
    options.sink_breaker.failure_threshold = 1;
    options.sink_breaker.open_cooldown_ns = 3600 * kNsPerSec;  // stays open
    tsdb::TimeSeriesDb external;
    IngestEngine engine(options, borrowed ? &external : nullptr);
    ASSERT_TRUE(engine.open().is_ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine.submit({make_point("m", i, 1.0, "a")}).is_ok());
    }
    ASSERT_TRUE(engine.flush().is_ok());
    // The sink goes down: the next batches park, and close() abandons
    // them — WAL-durable, not in storage.
    ASSERT_TRUE(fault::arm_from_spec("tsdb.write_batch=fail_after:0").is_ok());
    for (int i = 4; i < 10; ++i) {
      ASSERT_TRUE(engine
                      .submit({make_point("m", i, 1.0, "a"),
                               make_point("m", i, 2.0, "b")})
                      .is_ok());
    }
    engine.close();
    EXPECT_EQ(engine.stats().abandoned_points, 12u);
    EXPECT_EQ(engine.point_count(), 4u);
    // The fault is fixed; the supervisor restarts the engine.
    fault::disarm("tsdb.write_batch");
    ASSERT_TRUE(engine.reopen().is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
    EXPECT_EQ(engine.point_count(), 16u);
    auto per_tag = pmove::query::run(
        engine.db(), "SELECT count(\"value\") FROM \"m\" WHERE tag=\"b\"");
    ASSERT_TRUE(per_tag.has_value());
    EXPECT_EQ(per_tag->rows[0][1], 6.0);
    engine.close();
    // And the log still recovers exactly the acknowledged points.
    tsdb::TimeSeriesDb fresh;
    IngestEngine recovered(options, borrowed ? &fresh : nullptr);
    ASSERT_TRUE(recovered.open().is_ok());
    EXPECT_EQ(recovered.point_count(), 16u);
    recovered.close();
  }
}

// ------------------------------------------------------ write-path parity

/// Rows that name a few series in several spellings: permuted, escaped and
/// duplicated tag keys, '=' in a measurement, fields missing or new in the
/// middle of a run, out-of-order and duplicate timestamps.
std::vector<std::string> parity_lines() {
  static const char* const kHeads[] = {
      "cpu,dc=x,host=a",        "cpu,host=a,dc=x",  "cpu,host=\\a,dc=x",
      "cpu,host=z,dc=x,host=a", "cpu,dc=y,host=b",  "m=eq,host=a",
      "m\\=eq,host=a",          "cpu\\ load,host=a"};
  std::mt19937_64 rng(0x70617269747921ULL);
  std::vector<std::string> lines;
  TimeNs time = 1000;
  for (int i = 0; i < 900; ++i) {
    std::string line = kHeads[rng() % std::size(kHeads)];
    // Fields f0..f3 (f4 only in the second half) in a random order, each
    // present with probability 3/4, sometimes written twice.
    std::vector<std::string> fields;
    const int field_count = i < 450 ? 4 : 5;
    for (int f = 0; f < field_count; ++f) {
      if (rng() % 4 != 0) fields.push_back("f" + std::to_string(f));
    }
    if (fields.empty()) fields.push_back("f0");
    std::shuffle(fields.begin(), fields.end(), rng);
    if (rng() % 8 == 0) fields.push_back(fields.front());
    char sep = ' ';
    for (const std::string& f : fields) {
      line += sep;
      sep = ',';
      char value[48];
      const int n = tsdb::lp::format_value(
          value, static_cast<double>(rng() % 100000) / 7.0 - 5000.0);
      line += f + "=" + std::string(value, static_cast<std::size_t>(n));
    }
    if (rng() % 6 != 0) time += 10;  // else a duplicate timestamp
    const TimeNs late = rng() % 5 == 0 ? static_cast<TimeNs>(rng() % 8) * 10
                                       : 0;
    line += " " + std::to_string(time - late);
    lines.push_back(std::move(line));
  }
  return lines;
}

bool same_bits(const tsdb::QueryResult& a, const tsdb::QueryResult& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      if (std::bit_cast<std::uint64_t>(a.rows[r][c]) !=
          std::bit_cast<std::uint64_t>(b.rows[r][c])) {
        return false;
      }
    }
  }
  return true;
}

TEST(IngestEngineTest, EveryWritePathStoresTheSameRowsBitForBit) {
  // The same rows through write_batch(PointBatch), write_batch(vector of
  // reference-parsed Points), the engine's submit_lines and its submit.
  const std::vector<std::string> lines = parity_lines();
  constexpr int kPaths = 4;
  std::vector<tsdb::TimeSeriesDb> dbs(kPaths);
  for (tsdb::TimeSeriesDb& db : dbs) {
    db.set_run_config({/*seal_rows=*/16, /*max_sealed=*/2,
                       /*fold_ratio=*/0.5});
  }
  IngestOptions options;
  options.shard_count = 1;  // one queue: rows reach the DB in submit order
  IngestEngine by_text(options, &dbs[2]);
  IngestEngine by_points(options, &dbs[3]);
  ASSERT_TRUE(by_text.open().is_ok());
  ASSERT_TRUE(by_points.open().is_ok());
  std::mt19937_64 rng(99);
  bool dropped = false;
  for (std::size_t first = 0; first < lines.size();) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 40, lines.size() - first);
    std::string text;
    std::vector<tsdb::Point> points;
    for (std::size_t i = first; i < first + n; ++i) {
      if (rng() % 5 == 0) text += " \r\n";
      text += lines[i];
      text += rng() % 2 == 0 ? "\n" : "\r\n";
      auto p = pmove::testing::reference_from_line(lines[i]);
      ASSERT_TRUE(p.has_value()) << lines[i];
      points.push_back(std::move(p.value()));
    }
    first += n;
    auto batch = tsdb::PointBatch::parse(text);
    ASSERT_TRUE(batch.has_value()) << batch.status().to_string();
    ASSERT_TRUE(dbs[0].write_batch(batch.value()).is_ok());
    ASSERT_TRUE(dbs[1].write_batch(points).is_ok());
    ASSERT_TRUE(by_text.submit_lines(text).is_ok());
    ASSERT_TRUE(by_points.submit(points).is_ok());
    if (!dropped && first >= lines.size() / 2) {
      // Drop one series everywhere; the rest of the rows rewrite it.
      ASSERT_TRUE(by_text.flush().is_ok());
      ASSERT_TRUE(by_points.flush().is_ok());
      for (tsdb::TimeSeriesDb& db : dbs) {
        EXPECT_GT(db.drop_series("cpu", {{"dc", "x"}, {"host", "a"}}), 0u);
      }
      dropped = true;
    }
  }
  ASSERT_TRUE(by_text.flush().is_ok());
  ASSERT_TRUE(by_points.flush().is_ok());
  by_text.close();
  by_points.close();

  TempDir dir("write_parity");
  const auto dump = [&dir](const tsdb::TimeSeriesDb& db, int i) {
    const std::string path = dir.path + "/" + std::to_string(i) + ".lp";
    EXPECT_TRUE(db.dump_to_file(path).is_ok());
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string want = dump(dbs[0], 0);
  EXPECT_EQ(std::count(want.begin(), want.end(), '\n'),
            static_cast<std::ptrdiff_t>(dbs[0].point_count()));
  for (int i = 1; i < kPaths; ++i) EXPECT_EQ(dump(dbs[i], i), want) << i;

  using pmove::query::Aggregate;
  using pmove::query::QueryBuilder;
  std::size_t checked = 0;
  for (const char* m : {"cpu", "m=eq", "cpu load"}) {
    std::vector<pmove::query::Query> queries = {
        QueryBuilder(m).select_all().build(),
        QueryBuilder(m).select_all().where_tag("host", "a").build()};
    for (Aggregate a :
         {Aggregate::kMean, Aggregate::kMin, Aggregate::kMax, Aggregate::kSum,
          Aggregate::kCount, Aggregate::kStddev, Aggregate::kFirst,
          Aggregate::kLast}) {
      for (const char* f : {"f0", "f3", "f4"}) {
        queries.push_back(QueryBuilder(m).select(a, f).build());
        queries.push_back(
            QueryBuilder(m).select(a, f).group_by_time(70).build());
        queries.push_back(
            QueryBuilder(m).select(a, f).where_tag("host", "a").build());
      }
    }
    for (const pmove::query::Query& q : queries) {
      auto base = pmove::query::run(dbs[0], q);
      ASSERT_TRUE(base.has_value()) << q.to_string();
      ASSERT_FALSE(base->rows.empty()) << q.to_string();
      for (int i = 1; i < kPaths; ++i) {
        auto got = pmove::query::run(dbs[i], q);
        ASSERT_TRUE(got.has_value()) << q.to_string();
        EXPECT_TRUE(same_bits(base.value(), got.value()))
            << "path " << i << ": " << q.to_string();
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u * (2 + 8 * 3 * 3));
}

}  // namespace
}  // namespace pmove::ingest
