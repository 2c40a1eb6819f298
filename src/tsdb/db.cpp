#include "tsdb/db.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <numeric>
#include <utility>

#include "metrics/names.hpp"
#include "util/strings.hpp"
#include "util/task_pool.hpp"

namespace pmove::tsdb {

namespace {

// Decoded-tag-set lexicographic order: identical to comparing the
// materialized std::map<std::string, std::string> tag maps, so scan order
// matches the group order the seed row store produced when callers grouped
// points by their tag maps.
bool tagset_less(const TagDictionary& dict, const TagDictionary::TagSet& a,
                 const TagDictionary::TagSet& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (int c = dict.string(a[i].first).compare(dict.string(b[i].first));
        c != 0) {
      return c < 0;
    }
    if (int c = dict.string(a[i].second).compare(dict.string(b[i].second));
        c != 0) {
      return c < 0;
    }
  }
  return a.size() < b.size();
}

// Reorders v[first..first+perm.size()) to v[first + perm[i]].
template <class T>
void apply_perm(std::vector<T>& v, std::size_t first,
                const std::vector<std::uint32_t>& perm) {
  std::vector<T> tmp(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) tmp[i] = v[first + perm[i]];
  std::copy(tmp.begin(), tmp.end(), v.begin() + first);
}

// Sorts run rows [head, end) into (time, seq) order via one permutation.
void sort_run(Run& run) {
  const std::size_t first = run.head;
  const std::size_t n = run.times.size() - first;
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  const TimeNs* times = run.times.data() + first;
  const std::uint64_t* seqs = run.seqs.data() + first;
  std::sort(perm.begin(), perm.end(),
            [times, seqs](std::uint32_t a, std::uint32_t b) {
              if (times[a] != times[b]) return times[a] < times[b];
              return seqs[a] < seqs[b];
            });
  apply_perm(run.times, first, perm);
  apply_perm(run.seqs, first, perm);
  for (FieldColumn& col : run.fields) {
    apply_perm(col.values, first, perm);
    if (!col.present.empty()) apply_perm(col.present, first, perm);
  }
  run.sorted = true;
}

// Reclaims trimmed rows once they dominate the run: retention only
// advances `head`, so the dead prefix is erased lazily when it is both big
// enough to matter and at least half the physical storage (amortized O(1)
// per trimmed row).
void maybe_compact(Run& run) {
  if (run.head < 1024 || run.head * 2 < run.times.size()) return;
  const auto n = static_cast<std::ptrdiff_t>(run.head);
  run.times.erase(run.times.begin(), run.times.begin() + n);
  run.seqs.erase(run.seqs.begin(), run.seqs.begin() + n);
  for (FieldColumn& col : run.fields) {
    col.values.erase(col.values.begin(), col.values.begin() + n);
    if (!col.present.empty()) {
      col.present.erase(col.present.begin(), col.present.begin() + n);
    }
  }
  run.head = 0;
}

// Drops the trimmed prefix unconditionally (used when a run is about to be
// moved or merged, where keeping dead rows would just copy them around).
void drop_trimmed(Run& run) {
  if (run.head == 0) return;
  const auto n = static_cast<std::ptrdiff_t>(run.head);
  run.times.erase(run.times.begin(), run.times.begin() + n);
  run.seqs.erase(run.seqs.begin(), run.seqs.begin() + n);
  for (FieldColumn& col : run.fields) {
    col.values.erase(col.values.begin(), col.values.begin() + n);
    if (!col.present.empty()) {
      col.present.erase(col.present.begin(), col.present.begin() + n);
    }
  }
  run.head = 0;
}

// Column payload of an unpacked run: timestamps, seqs, values, presence.
std::size_t raw_run_bytes(const Run& run) {
  std::size_t n = run.times.size() * (sizeof(TimeNs) + sizeof(std::uint64_t));
  for (const FieldColumn& col : run.fields) {
    n += col.values.size() * sizeof(double) + col.present.size();
  }
  return n;
}

}  // namespace

IndexConfig IndexConfig::from_env() {
  IndexConfig config;
  if (const char* env = std::getenv("PMOVE_TSDB_INDEX_MIN_SERIES");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      config.min_series = static_cast<std::size_t>(v);
    }
  }
  return config;
}

std::size_t QueryResult::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  return columns.size();
}

void TimeSeriesDb::bump_epoch_locked(const std::string& measurement) {
  epochs_[measurement] = ++epoch_counter_;
}

void TimeSeriesDb::append_row_locked(Series& series, const PointBatch& batch,
                                     const PointBatch::Row& row) {
  constexpr std::size_t kRowBytes = sizeof(TimeNs) + sizeof(std::uint64_t);
  Run& run = series.active;
  if (run.sorted && !run.times.empty() && row.time < run.times.back()) {
    run.sorted = false;
  }
  run.times.push_back(row.time);
  run.seqs.push_back(seq_counter_++);
  ++live_points_;
  const std::span<const PointBatch::Field> fields = batch.fields(row);
  // Fast path: the row carries exactly the run's columns (a series almost
  // always has a fixed schema), so every column takes one value.
  bool same = fields.size() == run.fields.size();
  for (std::size_t i = 0; same && i < fields.size(); ++i) {
    same = run.fields[i].name == batch.text(fields[i].name);
  }
  if (same) {
    std::size_t bytes = kRowBytes + fields.size() * sizeof(double);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      FieldColumn& col = run.fields[i];
      col.values.push_back(fields[i].value);
      if (!col.present.empty()) {
        col.present.push_back(1);
        ++bytes;
      }
    }
    totals_.column_bytes += bytes;
    return;
  }
  // Merge the row's (sorted) fields into the (sorted) column vector:
  // matched columns take the value, unmatched columns take an absent NaN,
  // unseen fields open a new column backfilled with absent rows.
  const std::size_t bytes_before = raw_run_bytes(run);
  const std::size_t rows = run.times.size();
  std::size_t ci = 0;
  auto fit = fields.begin();
  while (ci < run.fields.size() || fit != fields.end()) {
    int cmp;
    if (ci == run.fields.size()) {
      cmp = 1;
    } else if (fit == fields.end()) {
      cmp = -1;
    } else {
      cmp = run.fields[ci].name.compare(batch.text(fit->name));
    }
    if (cmp < 0) {  // column the row does not carry
      FieldColumn& col = run.fields[ci];
      if (col.present.empty()) col.present.assign(rows - 1, 1);
      col.present.push_back(0);
      col.values.push_back(std::nan(""));
      ++ci;
    } else if (cmp > 0) {  // field this run has not seen
      FieldColumn col;
      col.name = std::string(batch.text(fit->name));
      col.values.assign(rows - 1, std::nan(""));
      col.values.push_back(fit->value);
      if (rows > 1) {
        col.present.assign(rows - 1, 0);
        col.present.push_back(1);
      }
      run.fields.insert(
          run.fields.begin() + static_cast<std::ptrdiff_t>(ci),
          std::move(col));
      ++ci;
      ++fit;
    } else {
      FieldColumn& col = run.fields[ci];
      col.values.push_back(fit->value);
      if (!col.present.empty()) col.present.push_back(1);
      ++ci;
      ++fit;
    }
  }
  // bytes_before already held the new row's time and seq.
  totals_.column_bytes += kRowBytes + raw_run_bytes(run) - bytes_before;
}

void TimeSeriesDb::seal_active_locked(Series& series) {
  Run& run = series.active;
  if (run.empty()) return;
  drop_trimmed(run);
  if (!run.sorted) sort_run(run);
  series.sealed.push_back(std::move(run));
  series.active = Run{};
  ++run_seals_;
  // Amortized compaction: fold once sealed runs pile up or reach the
  // configured fraction of the base (each fold then grows the base
  // geometrically, bounding total copy work per row).
  const std::size_t floor = std::max(series.base.row_count(),
                                     run_config_.seal_rows);
  if (series.sealed.size() > run_config_.max_sealed ||
      static_cast<double>(series.sealed_rows()) >=
          run_config_.fold_ratio * static_cast<double>(floor)) {
    fold_series_locked(series, /*include_active=*/false);
  } else {
    // The run will sit on the sealed list for a while — compress it now.
    // (When the fold fires instead, the fold packs the merged base.)
    try_pack_locked(series.sealed.back());
  }
}

void TimeSeriesDb::fold_series_locked(Series& series, bool include_active) {
  std::vector<Run*> runs;
  if (!series.base.empty()) runs.push_back(&series.base);
  for (Run& r : series.sealed) {
    if (!r.empty()) runs.push_back(&r);
  }
  if (include_active && !series.active.empty()) {
    runs.push_back(&series.active);
  }
  if (runs.size() <= 1 && series.sealed.empty() &&
      (!include_active || series.active.empty())) {
    return;  // nothing to fold
  }
  for (Run* r : runs) {
    // The merge below reads raw column vectors; packed inputs decode
    // first (their rows land packed again in the folded base).
    unpack_run(*r);
    drop_trimmed(*r);
    if (!r->sorted) sort_run(*r);
  }
  ++run_folds_;
  if (runs.empty()) {
    series.base = Run{};
    series.sealed.clear();
    if (include_active) series.active = Run{};
    return;
  }

  // Order runs by first (time, seq); if they cover disjoint windows the
  // fold is a straight column concatenation (memcpy-shaped).
  std::stable_sort(runs.begin(), runs.end(), [](const Run* a, const Run* b) {
    if (a->times.front() != b->times.front()) {
      return a->times.front() < b->times.front();
    }
    return a->seqs.front() < b->seqs.front();
  });
  bool disjoint = true;
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    const Run* a = runs[i];
    const Run* b = runs[i + 1];
    if (a->times.back() > b->times.front() ||
        (a->times.back() == b->times.front() &&
         a->seqs.back() > b->seqs.front())) {
      disjoint = false;
      break;
    }
  }

  std::size_t total = 0;
  for (const Run* r : runs) total += r->times.size();

  // Unified field schema (union, name-sorted) and per-run column table.
  std::vector<std::string_view> names;
  for (const Run* r : runs) {
    for (const FieldColumn& col : r->fields) {
      auto it = std::lower_bound(names.begin(), names.end(),
                                 std::string_view(col.name));
      if (it == names.end() || *it != col.name) {
        names.insert(it, std::string_view(col.name));
      }
    }
  }
  std::vector<const FieldColumn*> table(names.size() * runs.size(), nullptr);
  for (std::size_t f = 0; f < names.size(); ++f) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      table[f * runs.size() + r] = runs[r]->field(names[f]);
    }
  }

  Run out;
  out.sorted = true;
  out.times.reserve(total);
  out.seqs.reserve(total);
  out.fields.resize(names.size());

  if (disjoint) {
    for (const Run* r : runs) {
      out.times.insert(out.times.end(), r->times.begin(), r->times.end());
      out.seqs.insert(out.seqs.end(), r->seqs.begin(), r->seqs.end());
    }
    for (std::size_t f = 0; f < names.size(); ++f) {
      FieldColumn& col = out.fields[f];
      col.name = std::string(names[f]);
      col.values.reserve(total);
      const bool everywhere = [&] {
        for (std::size_t r = 0; r < runs.size(); ++r) {
          const FieldColumn* src = table[f * runs.size() + r];
          if (src == nullptr || !src->all_present()) return false;
        }
        return true;
      }();
      if (!everywhere) col.present.reserve(total);
      for (std::size_t r = 0; r < runs.size(); ++r) {
        const FieldColumn* src = table[f * runs.size() + r];
        const std::size_t rows = runs[r]->times.size();
        if (src == nullptr) {
          col.values.insert(col.values.end(), rows, std::nan(""));
          if (!everywhere) col.present.insert(col.present.end(), rows, 0);
          continue;
        }
        col.values.insert(col.values.end(), src->values.begin(),
                          src->values.end());
        if (everywhere) continue;
        if (src->all_present()) {
          col.present.insert(col.present.end(), rows, 1);
        } else {
          col.present.insert(col.present.end(), src->present.begin(),
                             src->present.end());
        }
      }
    }
  } else {
    // Interleaved runs: k-way merge via one (time, seq) sort of row refs.
    struct Ref {
      TimeNs time;
      std::uint64_t seq;
      std::uint32_t run;
      std::uint32_t row;
    };
    std::vector<Ref> refs;
    refs.reserve(total);
    for (std::uint32_t r = 0; r < runs.size(); ++r) {
      const Run* run = runs[r];
      for (std::size_t i = 0; i < run->times.size(); ++i) {
        refs.push_back({run->times[i], run->seqs[i], r,
                        static_cast<std::uint32_t>(i)});
      }
    }
    std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    });
    for (const Ref& ref : refs) {
      out.times.push_back(ref.time);
      out.seqs.push_back(ref.seq);
    }
    for (std::size_t f = 0; f < names.size(); ++f) {
      FieldColumn& col = out.fields[f];
      col.name = std::string(names[f]);
      col.values.reserve(total);
      bool everywhere = true;
      for (std::size_t r = 0; r < runs.size(); ++r) {
        const FieldColumn* src = table[f * runs.size() + r];
        if (src == nullptr || !src->all_present()) {
          everywhere = false;
          break;
        }
      }
      if (!everywhere) col.present.reserve(total);
      for (const Ref& ref : refs) {
        const FieldColumn* src = table[f * runs.size() + ref.run];
        const bool present =
            src != nullptr &&
            (src->all_present() || src->present[ref.row] != 0);
        col.values.push_back(present ? src->values[ref.row] : std::nan(""));
        if (!everywhere) col.present.push_back(present ? 1 : 0);
      }
    }
  }

  series.base = std::move(out);
  series.sealed.clear();
  if (include_active) series.active = Run{};
  try_pack_locked(series.base);
}

bool TimeSeriesDb::same_series(const Series& series, const PointBatch& batch,
                               const PointBatch::Series& key) const {
  if (*series.measurement != batch.text(key.measurement)) return false;
  const TagDictionary::TagSet& set = dict_.set(series.tagset_id);
  const std::span<const PointBatch::Tag> tags = batch.tags(key);
  if (set.size() != tags.size()) return false;
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (dict_.string(set[i].first) != batch.text(tags[i].key) ||
        dict_.string(set[i].second) != batch.text(tags[i].value)) {
      return false;
    }
  }
  return true;
}

void TimeSeriesDb::index_insert_locked(std::uint64_t hash, Series* series) {
  if (4 * (index_used_ + 1) > 3 * index_.size()) {
    std::vector<IndexSlot> old = std::move(index_);
    index_.assign(old.empty() ? 64 : 2 * old.size(), IndexSlot{});
    index_used_ = 0;
    for (const IndexSlot& slot : old) {
      if (slot.series != nullptr) index_insert_locked(slot.hash, slot.series);
    }
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].series != nullptr) i = (i + 1) & mask;
  index_[i] = {hash, series};
  ++index_used_;
}

void TimeSeriesDb::index_erase_locked(std::uint64_t hash,
                                      const Series* series) {
  if (index_.empty()) return;
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].series != series) {
    if (index_[i].series == nullptr) return;
    i = (i + 1) & mask;
  }
  // Backward-shift deletion: pull later members of the probe chain into
  // the hole unless that would move one before its home slot.
  for (std::size_t j = (i + 1) & mask; index_[j].series != nullptr;
       j = (j + 1) & mask) {
    const std::size_t home = index_[j].hash & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i] = IndexSlot{};
  --index_used_;
}

Series* TimeSeriesDb::resolve_series_locked(MeasurementStore& store,
                                            const std::string& measurement,
                                            const PointBatch& batch,
                                            const PointBatch::Series& key) {
  if (!index_.empty()) {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = key.hash & mask; index_[i].series != nullptr;
         i = (i + 1) & mask) {
      if (index_[i].hash == key.hash &&
          same_series(*index_[i].series, batch, key)) {
        return index_[i].series;
      }
    }
  }
  TagDictionary::TagSet set;
  set.reserve(key.tag_count);
  for (const PointBatch::Tag& tag : batch.tags(key)) {
    set.emplace_back(dict_.intern(batch.text(tag.key)),
                     dict_.intern(batch.text(tag.value)));
  }
  const TagDictionary::TagSetId ts = dict_.intern_set(std::move(set));
  const auto idx = static_cast<std::uint32_t>(store.series.size());
  auto series = std::make_unique<Series>();
  series->tagset_id = ts;
  series->measurement = &measurement;
  Series* raw = series.get();
  store.series.push_back(std::move(series));
  auto pos = std::lower_bound(
      store.sorted.begin(), store.sorted.end(), idx,
      [this, &store](std::uint32_t a, std::uint32_t b) {
        return tagset_less(dict_, dict_.set(store.series[a]->tagset_id),
                           dict_.set(store.series[b]->tagset_id));
      });
  const auto at = static_cast<std::size_t>(pos - store.sorted.begin());
  store.sorted.insert(pos, idx);
  // Inverted tag index: idx is the largest creation index, so appending
  // keeps every posting list ascending.  Ranks at and after the insertion
  // point shift by one — same O(sorted) cost the vector insert just paid.
  for (const auto& pair : dict_.set(ts)) {
    store.postings[pair].push_back(idx);
  }
  store.rank.resize(store.series.size());
  for (std::size_t i = at; i < store.sorted.size(); ++i) {
    store.rank[store.sorted[i]] = static_cast<std::uint32_t>(i);
  }
  index_insert_locked(key.hash, raw);
  ++series_count_;
  postings_count_ += dict_.set(ts).size();
  return raw;
}

void TimeSeriesDb::rebuild_index_locked(MeasurementStore& store,
                                        const TagDictionary& dict) {
  store.postings.clear();
  for (std::uint32_t i = 0; i < store.series.size(); ++i) {
    for (const auto& pair : dict.set(store.series[i]->tagset_id)) {
      store.postings[pair].push_back(i);
    }
  }
  store.rank.assign(store.series.size(), 0);
  for (std::size_t i = 0; i < store.sorted.size(); ++i) {
    store.rank[store.sorted[i]] = static_cast<std::uint32_t>(i);
  }
}

Status TimeSeriesDb::write_batch(std::vector<Point> points) {
  auto batch = PointBatch::from_points(points);
  if (!batch) return batch.status();
  return write_batch(batch.value());
}

Status TimeSeriesDb::write_batch(const PointBatch& batch) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const std::span<const PointBatch::Series> keys = batch.series();
  resolved_.resize(keys.size());
  const std::string* measurement = nullptr;
  MeasurementStore* store = nullptr;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string_view name = batch.text(keys[i].measurement);
    if (measurement == nullptr || *measurement != name) {
      auto it = series_.find(name);
      if (it == series_.end()) {
        it = series_.emplace(std::string(name), MeasurementStore{}).first;
      }
      bump_epoch_locked(it->first);
      measurement = &it->first;
      store = &it->second;
    }
    resolved_[i] = resolve_series_locked(*store, *measurement, batch, keys[i]);
  }
  for (const PointBatch::Row& row : batch.rows()) {
    append_row_locked(*resolved_[row.series], batch, row);
  }
  // The batch's series are distinct, so each is checked once.
  for (Series* series : resolved_) {
    if (series->active.row_count() >= run_config_.seal_rows) {
      const Footprint before = footprint(*series);
      seal_active_locked(*series);
      account_locked(before, footprint(*series));
    }
  }
  refresh_gauges_locked();
  return Status::ok();
}

std::size_t TimeSeriesDb::enforce_retention(TimeNs now) {
  if (retention_.duration <= 0) return 0;
  const TimeNs cutoff = now - retention_.duration;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::size_t dropped = 0;
  for (auto& [name, store] : series_) {
    std::size_t trimmed = 0;
    for (auto& entry : store.series) {
      Series& s = *entry;
      const Footprint before = footprint(s);
      const auto trim_run = [&](Run& run) {
        if (run.empty()) return;
        if (run.is_packed()) {
          // Same head-advance, but the search runs over the delta-of-delta
          // block index instead of a raw vector.  Compaction of a
          // mostly-trimmed packed run is a decode/re-encode cycle.
          const std::size_t new_head =
              std::max(run.head, run.packed->times.lower_bound(cutoff));
          if (new_head == run.head) return;
          trimmed += new_head - run.head;
          run.head = new_head;
          if (run.head >= 1024 && run.head * 2 >= run.physical_rows()) {
            unpack_run(run);
            drop_trimmed(run);
            try_pack_locked(run);
          }
          return;
        }
        if (!run.sorted) sort_run(run);
        const auto live_begin =
            run.times.begin() + static_cast<std::ptrdiff_t>(run.head);
        auto pos = std::lower_bound(live_begin, run.times.end(), cutoff);
        const auto new_head = static_cast<std::size_t>(pos -
                                                       run.times.begin());
        if (new_head == run.head) return;
        trimmed += new_head - run.head;
        run.head = new_head;
        maybe_compact(run);
      };
      trim_run(s.base);
      for (Run& run : s.sealed) trim_run(run);
      trim_run(s.active);
      // Fully-trimmed sealed runs are dead weight; drop them now.
      s.sealed.erase(std::remove_if(s.sealed.begin(), s.sealed.end(),
                                    [](const Run& r) { return r.empty(); }),
                     s.sealed.end());
      account_locked(before, footprint(s));
    }
    if (trimmed != 0) {
      dropped += trimmed;
      bump_epoch_locked(name);
    }
  }
  live_points_ -= dropped;
  if (dropped != 0) refresh_gauges_locked();
  return dropped;
}

std::size_t TimeSeriesDb::compact() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::size_t folded = 0;
  bool packed_any = false;
  for (auto& [name, store] : series_) {
    for (auto& entry : store.series) {
      Series& s = *entry;
      const Footprint before = footprint(s);
      const std::size_t loose =
          s.sealed.size() + (s.active.empty() ? 0 : 1);
      if (loose == 0) {
        // Nothing to fold, but an already-compacted base may still be
        // uncompressed (e.g. packing was just enabled): compress it now so
        // an explicit compact() always converges to the packed layout.
        packed_any = try_pack_locked(s.base) || packed_any;
      } else {
        fold_series_locked(s, /*include_active=*/true);
        folded += loose;
      }
      account_locked(before, footprint(s));
    }
  }
  if (folded != 0 || packed_any) refresh_gauges_locked();
  return folded;
}

std::vector<std::string> TimeSeriesDb::measurements() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, store] : series_) out.push_back(name);
  return out;
}

std::size_t TimeSeriesDb::point_count() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return live_points_;
}

std::size_t TimeSeriesDb::point_count(std::string_view measurement) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = series_.find(measurement);
  if (it == series_.end()) return 0;
  std::size_t total = 0;
  for (const auto& entry : it->second.series) total += entry->row_count();
  return total;
}

bool TimeSeriesDb::has_measurement(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return series_.find(name) != series_.end();
}

std::uint64_t TimeSeriesDb::write_epoch(std::string_view measurement) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = epochs_.find(measurement);
  return it == epochs_.end() ? 0 : it->second;
}

bool TimeSeriesDb::gather_views_locked(
    std::string_view measurement, TimeNs time_min, TimeNs time_max,
    const std::map<std::string, std::string>& filters,
    std::vector<SeriesView>& out) const {
  auto it = series_.find(measurement);
  if (it == series_.end()) return false;
  const MeasurementStore& store = it->second;
  // Resolve filter strings to dictionary ids once; a string the dictionary
  // has never seen cannot match any stored tag, so the scan is empty.
  std::vector<std::pair<TagDictionary::StringId, TagDictionary::StringId>>
      needed;
  needed.reserve(filters.size());
  for (const auto& [key, value] : filters) {
    const auto key_id = dict_.find(key);
    const auto value_id = dict_.find(value);
    if (!key_id.has_value() || !value_id.has_value()) return true;
    needed.emplace_back(*key_id, *value_id);
  }

  // Matching series, in the deterministic tag-sorted scan order.
  std::vector<std::uint32_t> matches;
  if (!needed.empty() && store.series.size() >= index_config_.min_series) {
    // Index path: intersect the posting lists, smallest first, so the
    // work is O(smallest list) instead of O(series × filters).  A filter
    // pair the index has never seen matches nothing.
    index_scans_.fetch_add(1, std::memory_order_relaxed);
    std::vector<const std::vector<std::uint32_t>*> lists;
    lists.reserve(needed.size());
    bool any_empty = false;
    for (const auto& pair : needed) {
      auto p = store.postings.find(pair);
      if (p == store.postings.end() || p->second.empty()) {
        any_empty = true;
        break;
      }
      lists.push_back(&p->second);
    }
    if (!any_empty) {
      std::sort(lists.begin(), lists.end(),
                [](const std::vector<std::uint32_t>* a,
                   const std::vector<std::uint32_t>* b) {
                  return a->size() < b->size();
                });
      matches = *lists.front();
      index_probes_.fetch_add(matches.size(), std::memory_order_relaxed);
      for (std::size_t l = 1; l < lists.size() && !matches.empty(); ++l) {
        std::vector<std::uint32_t> next;
        next.reserve(matches.size());
        std::set_intersection(matches.begin(), matches.end(),
                              lists[l]->begin(), lists[l]->end(),
                              std::back_inserter(next));
        matches.swap(next);
      }
      // Posting lists are in creation order; emit hits in the linear
      // probe's tag-sorted order so scan output is identical either way.
      std::sort(matches.begin(), matches.end(),
                [&store](std::uint32_t a, std::uint32_t b) {
                  return store.rank[a] < store.rank[b];
                });
    }
  } else {
    if (!needed.empty()) {
      index_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    matches.reserve(store.sorted.size());
    for (std::uint32_t idx : store.sorted) {
      const Series& s = *store.series[idx];
      bool ok = true;
      for (const auto& [key_id, value_id] : needed) {
        if (!dict_.set_contains(s.tagset_id, key_id, value_id)) {
          ok = false;
          break;
        }
      }
      if (ok) matches.push_back(idx);
    }
  }

  // Build the clipped views — in parallel for wide matches.  Workers only
  // read series/dictionary state; the caller holds the shared lock for
  // the whole gather, so no writer can interleave.  Each slot is written
  // by exactly one task, and empty views are dropped afterwards in match
  // order, keeping the output deterministic.
  const std::size_t n = matches.size();
  std::vector<SeriesView> built(n);
  util::TaskPool& pool =
      scan_pool_ != nullptr ? *scan_pool_ : util::TaskPool::shared();
  constexpr std::size_t kParallelBuildMin = 64;
  if (n >= kParallelBuildMin && pool.size() > 1) {
    pool.parallel_for(n, [&](std::size_t i) {
      built[i] = SeriesViewBuilder::build(*store.series[matches[i]], dict_,
                                          time_min, time_max);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      built[i] = SeriesViewBuilder::build(*store.series[matches[i]], dict_,
                                          time_min, time_max);
    }
  }
  out.reserve(out.size() + n);
  for (SeriesView& view : built) {
    if (view.rows() == 0) continue;
    out.push_back(std::move(view));
  }
  return true;
}

bool TimeSeriesDb::scan(std::string_view measurement, TimeNs time_min,
                        TimeNs time_max,
                        const std::map<std::string, std::string>& tag_filters,
                        const ScanCallback& visit) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<SeriesView> views;
  const bool found =
      gather_views_locked(measurement, time_min, time_max, tag_filters,
                          views);
  visit(std::span<const SeriesView>(views));
  return found;
}

std::vector<Point> TimeSeriesDb::collect(
    std::string_view measurement, TimeNs time_min, TimeNs time_max,
    const std::map<std::string, std::string>& tag_filters) const {
  std::vector<Point> out;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<SeriesView> views;
  if (!gather_views_locked(measurement, time_min, time_max, tag_filters,
                           views)) {
    return out;
  }
  std::size_t total = 0;
  for (const SeriesView& v : views) total += v.rows();
  out.reserve(total);
  // Decode each tag set once per series, not once per point, and track how
  // many rows still need each map: intermediate points share via copy, the
  // last row of a series steals the map outright — one decode and V copies
  // saved per series instead of one copy per point.
  std::vector<std::map<std::string, std::string>> tag_maps;
  std::vector<std::size_t> remaining;
  tag_maps.reserve(views.size());
  remaining.reserve(views.size());
  for (const SeriesView& v : views) {
    tag_maps.push_back(v.decode_tags());
    remaining.push_back(v.rows());
  }
  for (const ViewRow& ref : merged_view_rows(views)) {
    const SeriesView& view = views[ref.view];
    Point p;
    p.measurement = std::string(measurement);
    if (--remaining[ref.view] == 0) {
      p.tags = std::move(tag_maps[ref.view]);
    } else {
      p.tags = tag_maps[ref.view];
    }
    p.time = ref.time;
    for (std::size_t f = 0; f < view.field_count(); ++f) {
      if (!view.has_value(f, ref.loc)) continue;
      // Fields are name-sorted, so insertion at the map's end is O(1).
      p.fields.emplace_hint(p.fields.end(), std::string(view.field_name(f)),
                            view.value_at(f, ref.loc));
    }
    out.push_back(std::move(p));
  }
  return out;
}

Status TimeSeriesDb::dump_to_file(const std::string& path) const {
  // Render the whole snapshot under the shared lock, but keep the file I/O
  // outside it — a slow disk must never stall writers.
  std::string buffer;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    char value_buf[48];
    for (const auto& [name, store] : series_) {
      std::vector<SeriesView> views;
      (void)gather_views_locked(name, std::numeric_limits<TimeNs>::min(),
                                std::numeric_limits<TimeNs>::max(), {},
                                views);
      // Per-series constants: the escaped "measurement,tag=v,..." prefix and
      // the escaped field names, rendered once instead of once per row.
      std::vector<std::string> prefixes;
      std::vector<std::vector<std::string>> field_names;
      prefixes.reserve(views.size());
      field_names.reserve(views.size());
      for (const SeriesView& view : views) {
        std::string prefix = lp::escape(name);
        for (const auto& [key_id, value_id] : view.tagset()) {
          prefix += ',';
          prefix += lp::escape(view.dict().string(key_id));
          prefix += '=';
          prefix += lp::escape(view.dict().string(value_id));
        }
        prefixes.push_back(std::move(prefix));
        std::vector<std::string> names;
        names.reserve(view.field_count());
        for (std::size_t f = 0; f < view.field_count(); ++f) {
          names.push_back(lp::escape(std::string(view.field_name(f))));
        }
        field_names.push_back(std::move(names));
      }
      for (const ViewRow& ref : merged_view_rows(views)) {
        const SeriesView& view = views[ref.view];
        buffer += prefixes[ref.view];
        buffer += ' ';
        bool first = true;
        for (std::size_t f = 0; f < view.field_count(); ++f) {
          if (!view.has_value(f, ref.loc)) continue;
          if (!first) buffer += ',';
          first = false;
          buffer += field_names[ref.view][f];
          buffer += '=';
          const int n =
              lp::format_value(value_buf, view.value_at(f, ref.loc));
          buffer.append(value_buf, static_cast<std::size_t>(n));
        }
        buffer += ' ';
        buffer += std::to_string(ref.time);
        buffer += '\n';
      }
    }
  }
  std::ofstream out(path);
  if (!out) return Status::unavailable("cannot write " + path);
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  return out.good() ? Status::ok()
                    : Status::unavailable("write failed: " + path);
}

Status TimeSeriesDb::load_from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::not_found("cannot open " + path);
  // Parse 4096-line chunks into batches so the columnar insert amortizes
  // locking and ordering; lines before a malformed one still land.
  constexpr std::size_t kChunkLines = 4096;
  std::string chunk;
  std::string line;
  std::size_t chunk_first = 1;  // file line number of the chunk's first line
  std::size_t lines = 0;
  const auto flush = [&]() -> Status {
    PointBatch batch;
    std::size_t bad = 0;
    const Status parsed = batch.append_lines(chunk, &bad);
    if (!batch.empty()) {
      if (Status s = write_batch(batch); !s.is_ok()) return s;
    }
    if (!parsed.is_ok()) {
      return Status::parse_error(path + ":" +
                                 std::to_string(chunk_first + bad - 1) +
                                 ": " + parsed.message());
    }
    chunk_first += lines;
    lines = 0;
    chunk.clear();
    return Status::ok();
  };
  while (std::getline(in, line)) {
    chunk += line;
    chunk += '\n';
    if (++lines == kChunkLines) {
      if (Status s = flush(); !s.is_ok()) return s;
    }
  }
  return flush();
}

void TimeSeriesDb::clear() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  series_.clear();
  // Epoch tags die with the entries; epoch_counter_ keeps counting so a
  // measurement recreated after clear() never reuses an old epoch value.
  // seq_counter_ keeps counting too — old seqs are unreachable, but a
  // monotonic counter is free and immune to ABA-style ordering surprises.
  epochs_.clear();
  dict_.clear();
  index_.clear();
  index_used_ = 0;
  totals_ = Footprint{};
  series_count_ = 0;
  postings_count_ = 0;
  live_points_ = 0;
  refresh_gauges_locked();
}

std::size_t TimeSeriesDb::drop_measurement(std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = series_.find(name);
  if (it == series_.end()) return 0;
  std::size_t dropped = 0;
  for (const auto& entry : it->second.series) dropped += entry->row_count();
  forget_store_locked(it->first, it->second);
  if (auto epoch = epochs_.find(it->first); epoch != epochs_.end()) {
    epochs_.erase(epoch);
  }
  series_.erase(it);
  live_points_ -= dropped;
  refresh_gauges_locked();
  return dropped;
}

std::size_t TimeSeriesDb::drop_series(
    std::string_view measurement,
    const std::map<std::string, std::string>& tags) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = series_.find(measurement);
  if (it == series_.end()) return 0;
  MeasurementStore& store = it->second;
  std::size_t victim = store.series.size();
  for (std::size_t i = 0; i < store.series.size(); ++i) {
    const TagDictionary::TagSet& set = dict_.set(store.series[i]->tagset_id);
    if (set.size() != tags.size()) continue;
    bool match = true;
    auto tag = tags.begin();
    for (const auto& [key_id, value_id] : set) {
      if (dict_.string(key_id) != tag->first ||
          dict_.string(value_id) != tag->second) {
        match = false;
        break;
      }
      ++tag;
    }
    if (match) {
      victim = i;
      break;
    }
  }
  if (victim == store.series.size()) return 0;
  const Series& gone = *store.series[victim];
  const std::size_t dropped = gone.row_count();
  index_erase_locked(PointBatch::hash_key(PointBatch::key_of(it->first, tags)),
                     &gone);
  account_locked(footprint(gone), Footprint{});
  --series_count_;
  postings_count_ -= dict_.set(gone.tagset_id).size();
  store.series.erase(store.series.begin() +
                     static_cast<std::ptrdiff_t>(victim));
  // Indices past the victim shifted down; rebuild the scan order and the
  // tag index.
  store.sorted.clear();
  for (std::uint32_t i = 0; i < store.series.size(); ++i) {
    store.sorted.push_back(i);
  }
  std::sort(store.sorted.begin(), store.sorted.end(),
            [this, &store](std::uint32_t a, std::uint32_t b) {
              return tagset_less(dict_, dict_.set(store.series[a]->tagset_id),
                                 dict_.set(store.series[b]->tagset_id));
            });
  rebuild_index_locked(store, dict_);
  bump_epoch_locked(it->first);
  live_points_ -= dropped;
  refresh_gauges_locked();
  return dropped;
}

TsdbStats TimeSeriesDb::stats() const {
  // A full recount, independent of the running totals the gauges use.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  TsdbStats st;
  st.measurements = series_.size();
  for (const auto& [name, store] : series_) {
    st.series += store.series.size();
    for (const auto& entry : store.series) {
      const Footprint f = footprint(*entry);
      st.sealed_runs += f.sealed_runs;
      st.column_bytes += f.column_bytes;
      st.compressed_runs += f.compressed_runs;
      st.bytes_raw += f.bytes_raw;
      st.bytes_packed += f.bytes_packed;
      st.active_rows += entry->active.row_count();
    }
    for (const auto& [pair, list] : store.postings) {
      st.index_postings += list.size();
    }
  }
  st.points = live_points_;
  st.dict_strings = dict_.string_count();
  st.dict_tagsets = dict_.set_count();
  st.dict_bytes = dict_bytes_locked();
  st.run_seals = run_seals_;
  st.run_folds = run_folds_;
  st.pack_time_ns = pack_time_ns_;
  st.index_probes = index_probes_.load(std::memory_order_relaxed);
  st.index_scans = index_scans_.load(std::memory_order_relaxed);
  st.index_fallbacks = index_fallbacks_.load(std::memory_order_relaxed);
  return st;
}

RunConfig TimeSeriesDb::run_config() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return run_config_;
}

void TimeSeriesDb::set_run_config(const RunConfig& config) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  run_config_ = config;
  if (run_config_.seal_rows == 0) run_config_.seal_rows = 1;
  if (run_config_.max_sealed == 0) run_config_.max_sealed = 1;
  if (run_config_.fold_ratio <= 0.0) run_config_.fold_ratio = 0.5;
}

PackConfig TimeSeriesDb::pack_config() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return pack_config_;
}

void TimeSeriesDb::set_pack_config(const PackConfig& config) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  pack_config_ = config;
  if (pack_config_.min_rows == 0) pack_config_.min_rows = 1;
}

IndexConfig TimeSeriesDb::index_config() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return index_config_;
}

void TimeSeriesDb::set_index_config(const IndexConfig& config) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  index_config_ = config;
  if (index_config_.min_series == 0) index_config_.min_series = 1;
}

void TimeSeriesDb::set_scan_pool(util::TaskPool* pool) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  scan_pool_ = pool;
}

bool TimeSeriesDb::try_pack_locked(Run& run) {
  if (!pack_config_.enabled || run.is_packed()) return false;
  const auto start = std::chrono::steady_clock::now();
  const bool packed = pack_run(run, pack_config_);
  if (packed) {
    pack_time_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return packed;
}

TimeSeriesDb::Footprint TimeSeriesDb::footprint(const Series& series) {
  Footprint f;
  f.sealed_runs = series.sealed.size();
  const auto visit = [&f](const Run& run) {
    if (run.is_packed()) {
      const std::size_t bytes = run.packed->byte_size();
      f.column_bytes += bytes;
      ++f.compressed_runs;
      f.bytes_raw += run.packed->raw_bytes;
      f.bytes_packed += bytes;
      return;
    }
    f.column_bytes += raw_run_bytes(run);
  };
  visit(series.base);
  visit(series.active);
  for (const Run& run : series.sealed) visit(run);
  return f;
}

void TimeSeriesDb::account_locked(const Footprint& before,
                                  const Footprint& after) {
  // Unsigned wrap-around cancels: each total ends at its true value.
  totals_.column_bytes += after.column_bytes - before.column_bytes;
  totals_.sealed_runs += after.sealed_runs - before.sealed_runs;
  totals_.compressed_runs += after.compressed_runs - before.compressed_runs;
  totals_.bytes_raw += after.bytes_raw - before.bytes_raw;
  totals_.bytes_packed += after.bytes_packed - before.bytes_packed;
}

void TimeSeriesDb::forget_store_locked(const std::string& measurement,
                                       const MeasurementStore& store) {
  for (const auto& entry : store.series) {
    const Series& series = *entry;
    index_erase_locked(PointBatch::hash_key(PointBatch::key_of(
                           measurement, dict_.decode(series.tagset_id))),
                       &series);
    account_locked(footprint(series), Footprint{});
    postings_count_ -= dict_.set(series.tagset_id).size();
  }
  series_count_ -= store.series.size();
}

void TimeSeriesDb::set_telemetry_instance(const std::string& instance) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto& reg = metrics::Registry::global();
  m_series_ = &reg.gauge(metrics::kMeasurementTsdb, instance, "series");
  m_points_ = &reg.gauge(metrics::kMeasurementTsdb, instance, "points");
  m_dict_strings_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "dict_strings");
  m_dict_bytes_ = &reg.gauge(metrics::kMeasurementTsdb, instance, "dict_bytes");
  m_column_bytes_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "column_bytes");
  m_sealed_runs_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "sealed_runs");
  m_run_seals_ = &reg.gauge(metrics::kMeasurementTsdb, instance, "run_seals");
  m_run_folds_ = &reg.gauge(metrics::kMeasurementTsdb, instance, "run_folds");
  m_compressed_runs_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "compressed_runs");
  m_bytes_raw_ = &reg.gauge(metrics::kMeasurementTsdb, instance, "bytes_raw");
  m_bytes_packed_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "bytes_packed");
  m_pack_time_ns_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "pack_time_ns");
  m_index_postings_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "index_postings");
  m_index_probes_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "index_probes");
  m_index_scans_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "index_scans");
  m_index_fallbacks_ =
      &reg.gauge(metrics::kMeasurementTsdb, instance, "index_fallbacks");
  refresh_gauges_locked();
}

void TimeSeriesDb::refresh_gauges_locked() {
  if (m_series_ == nullptr) return;
  m_series_->set(static_cast<double>(series_count_));
  m_points_->set(static_cast<double>(live_points_));
  m_dict_strings_->set(static_cast<double>(dict_.string_count()));
  m_dict_bytes_->set(static_cast<double>(dict_bytes_locked()));
  m_column_bytes_->set(static_cast<double>(totals_.column_bytes));
  m_sealed_runs_->set(static_cast<double>(totals_.sealed_runs));
  m_run_seals_->set(static_cast<double>(run_seals_));
  m_run_folds_->set(static_cast<double>(run_folds_));
  m_compressed_runs_->set(static_cast<double>(totals_.compressed_runs));
  m_bytes_raw_->set(static_cast<double>(totals_.bytes_raw));
  m_bytes_packed_->set(static_cast<double>(totals_.bytes_packed));
  m_pack_time_ns_->set(static_cast<double>(pack_time_ns_));
  m_index_postings_->set(static_cast<double>(postings_count_));
  m_index_probes_->set(static_cast<double>(
      index_probes_.load(std::memory_order_relaxed)));
  m_index_scans_->set(static_cast<double>(
      index_scans_.load(std::memory_order_relaxed)));
  m_index_fallbacks_->set(static_cast<double>(
      index_fallbacks_.load(std::memory_order_relaxed)));
}

}  // namespace pmove::tsdb
