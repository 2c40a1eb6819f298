// Columnar series storage for the TSDB (InfluxDB-TSM-style layout) with an
// LSM-style write path.
//
// One Series per (measurement, tag set).  A series is a small LSM tree of
// *runs*: a sorted `base` run (the bulk of the data), a bounded list of
// `sealed` runs (each individually (time, seq)-sorted), and an `active` run
// that appends in arrival order — so a batch write is a pure column append,
// never an insertion sort.  The active run is sealed (sorted once) when it
// reaches a size threshold, and sealed runs are folded into the base by an
// amortized compactor, so ordering cost is paid O(log n) times per row in
// sort-sized chunks instead of once per batch over the whole series.
//
// Ordering invariant: every run except the active one is sorted by
// (time, seq) where seq is the per-DB arrival counter.  The seed row store
// kept each measurement's points stably time-sorted in arrival order, which
// is exactly the (time, seq) total order — merging runs (and series) by
// (time, seq) therefore reproduces the seed's point order bit-for-bit,
// including the order floating-point aggregation folds values in.
//
// Read side: scans hand out SeriesView cursors.  A view hides the run
// structure entirely — callers see one logical sequence of rows in
// (time, seq) order plus a unified field schema, whether the series is one
// contiguous compacted run or a pile of interleaved live runs.  Query,
// fleet, and bench code consume views only; runs are an implementation
// detail the compactor is free to rearrange.
//
// Missing fields: a row missing a field stores NaN in that field's value
// column.  Because a *stored* NaN field value must stay distinguishable
// from an absent one (aggregates skip absent values but fold stored NaNs),
// each column optionally carries a presence byte-map; an empty map means
// "present in every row" — the common case, since a series almost always
// has a fixed schema — and costs nothing to scan.
//
// Compression: sealed and base runs may additionally be *packed* — their
// raw column vectors replaced by a PackedRun (delta-of-delta timestamps,
// bit-width-packed integral fields; see tsdb/packed.hpp and
// docs/STORAGE.md).  Packing happens at run-seal/fold time only, so the
// active run and the write hot path never see it; views decode clipped
// time/seq ranges at build time and stream field values through
// for_each_value_block, so readers are layout-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/dict.hpp"
#include "tsdb/packed.hpp"
#include "util/clock.hpp"

namespace pmove::tsdb {

struct FieldColumn {
  std::string name;
  /// Parallel to Run::times; NaN where the row lacks the field.
  std::vector<double> values;
  /// Empty = present in every row; else one byte per row (1 = present).
  std::vector<std::uint8_t> present;

  [[nodiscard]] bool all_present() const { return present.empty(); }
};

/// One run of rows: parallel time/seq/field columns.  Runs are the unit of
/// ordering — sorted runs keep (time, seq) order; the active run keeps
/// arrival order and tracks whether that happens to be sorted.
struct Run {
  /// Logical first row: rows [0, head) were trimmed by retention and await
  /// compaction.  All column vectors keep physical length == times.size().
  std::size_t head = 0;
  /// True while times[head..] is non-decreasing.  Appends maintain it; a
  /// freshly sealed or folded run always has it set.
  bool sorted = true;
  std::vector<TimeNs> times;
  std::vector<std::uint64_t> seqs;
  std::vector<FieldColumn> fields;  ///< sorted by name
  /// Compressed image (sealed/base runs only; see pack_run).  When set,
  /// the raw vectors above are empty and all access goes through it;
  /// `head` retains its retention meaning against packed row numbers.
  std::unique_ptr<PackedRun> packed;

  [[nodiscard]] bool is_packed() const { return packed != nullptr; }
  /// Physical rows including the trimmed [0, head) prefix.
  [[nodiscard]] std::size_t physical_rows() const {
    return packed != nullptr ? packed->rows : times.size();
  }
  [[nodiscard]] std::size_t row_count() const {
    return physical_rows() - head;
  }
  [[nodiscard]] bool empty() const { return head == physical_rows(); }

  /// Field column by name, or nullptr.  Binary search over the sorted
  /// field vector.  Raw runs only — packed runs resolve fields through
  /// PackedRun::field.
  [[nodiscard]] const FieldColumn* field(std::string_view name) const;
  [[nodiscard]] FieldColumn* field(std::string_view name);
};

/// Compresses a sorted, untrimmed (head == 0) run in place: raw columns
/// are encoded into a PackedRun and released.  No-op (returns false)
/// when packing is disabled, the run is below config.min_rows, already
/// packed, unsorted, or trimmed.
bool pack_run(Run& run, const PackConfig& config);

/// Restores a packed run to raw column vectors (exact inverse of
/// pack_run, bit-for-bit including stored NaN payloads and -0.0).
void unpack_run(Run& run);

/// All points of one (measurement, tag set): an LSM tree of runs.
struct Series {
  TagDictionary::TagSetId tagset_id = 0;
  Run base;                 ///< sorted; where sealed runs are folded into
  std::vector<Run> sealed;  ///< sorted runs awaiting compaction
  Run active;               ///< arrival-order append target
  /// The owning measurement's name (the DB's map key, stable while the
  /// series lives); the series index checks hash hits against it.
  const std::string* measurement = nullptr;

  [[nodiscard]] std::size_t row_count() const {
    std::size_t n = base.row_count() + active.row_count();
    for (const Run& r : sealed) n += r.row_count();
    return n;
  }
  [[nodiscard]] std::size_t sealed_rows() const {
    std::size_t n = 0;
    for (const Run& r : sealed) n += r.row_count();
    return n;
  }
};

/// LSM write-path tuning (the PMOVE_TSDB_RUN_* knobs).
struct RunConfig {
  /// Active run is sealed (sorted) once it holds this many rows.
  std::size_t seal_rows = 4096;
  /// Fold sealed runs into the base when more than this many accumulate…
  std::size_t max_sealed = 8;
  /// …or when their rows reach this fraction of the base (geometric
  /// amortization: each fold at least grows the base by the ratio).
  double fold_ratio = 0.5;

  /// Reads PMOVE_TSDB_RUN_ROWS / PMOVE_TSDB_RUN_MAX_SEALED /
  /// PMOVE_TSDB_RUN_FOLD_RATIO, clamping unusable values to the defaults.
  static RunConfig from_env();
};

/// Zero-copy cursor over one series' rows inside a scanned time range, in
/// (time, seq) order.  Valid only inside the TimeSeriesDb::scan() callback
/// (the DB's shared lock is held; the view aliases live column storage).
///
/// The view hides the run structure behind two access styles:
///   * contiguous() views expose direct column spans (times/values/…) —
///     the fully-compacted fast path;
///   * every view supports Loc-based access: for_each_row() enumerates
///     (Loc, time, seq) in logical order, and value/has_value/time read a
///     cell by Loc.  A Loc is an opaque physical position; callers must
///     not fabricate one.
/// Field indices refer to the view's unified schema: the union of the
/// fields of every run in range, name-sorted.
class SeriesView {
 public:
  /// Opaque physical row position (segment + row within it).
  struct Loc {
    std::uint32_t seg;
    std::uint32_t row;
  };

  [[nodiscard]] std::size_t rows() const { return rows_; }

  /// True when the rows are one physically contiguous sorted range — the
  /// span accessors below are only valid then.
  [[nodiscard]] bool contiguous() const;

  /// Loc of logical row `i` of a contiguous() view — the bridge from
  /// span-indexed code to Loc-based cell access.
  [[nodiscard]] Loc loc_at(std::size_t i) const {
    return Loc{0, static_cast<std::uint32_t>(segments_[0].begin + i)};
  }

  [[nodiscard]] std::span<const TimeNs> times() const;
  [[nodiscard]] std::span<const std::uint64_t> seqs() const;
  /// Value span of field `i`, restricted to the view (contiguous only);
  /// empty when the run lacks the field or stores it bit-packed (kInt has
  /// no addressable doubles — consume such columns via
  /// for_each_value_block or value_at).
  [[nodiscard]] std::span<const double> values(std::size_t i) const;

  [[nodiscard]] std::size_t field_count() const { return fields_.size(); }
  [[nodiscard]] std::string_view field_name(std::size_t i) const {
    return fields_[i];
  }
  /// Index of the named field, or field_count() when the series lacks it.
  [[nodiscard]] std::size_t field_index(std::string_view name) const;
  /// True when field `i` is present in at least one row of the view.
  [[nodiscard]] bool any_present(std::size_t i) const;

  // Loc-based access — valid for every view.  Inline: the merged-row
  // evaluation paths call these once per row per field.  Packed segments
  // read times/seqs from the ranges decoded at view build and values
  // straight out of the packed column (one shift+mask for bit-packed
  // lanes, a buffer read for pre-decoded XOR columns).
  [[nodiscard]] TimeNs time_at(Loc loc) const {
    const Segment& seg = segments_[loc.seg];
    return seg.dtimes.empty() ? seg.run->times[loc.row]
                              : seg.dtimes[loc.row - seg.begin];
  }
  [[nodiscard]] std::uint64_t seq_at(Loc loc) const {
    const Segment& seg = segments_[loc.seg];
    if (seg.run->is_packed()) {
      if (seg.dseqs.empty()) decode_seqs(seg);
      return seg.dseqs[loc.row - seg.begin];
    }
    return seg.run->seqs[loc.row];
  }
  [[nodiscard]] bool has_value(std::size_t field, Loc loc) const {
    const ColRef& col = cols_[field * segments_.size() + loc.seg];
    if (col.raw != nullptr) {
      return col.raw->present.empty() || col.raw->present[loc.row] != 0;
    }
    if (col.packed != nullptr) return col.packed->present_at(loc.row);
    return false;
  }
  [[nodiscard]] double value_at(std::size_t field, Loc loc) const {
    const ColRef& col = cols_[field * segments_.size() + loc.seg];
    if (col.raw != nullptr) return col.raw->values[loc.row];
    if (col.decoded != nullptr) {
      return col.decoded[loc.row - segments_[loc.seg].begin];
    }
    return col.packed->value_at(loc.row);
  }

  /// Incremental iterator over the view's rows in (time, seq) order —
  /// O(1) advance, no per-row allocation.  merged_view_rows uses one per
  /// view for its k-way heap merge.
  class RowCursor {
   public:
    explicit RowCursor(const SeriesView& view) : view_(&view) {}
    [[nodiscard]] bool valid() const { return i_ < view_->rows_; }
    [[nodiscard]] Loc loc() const {
      if (!view_->order_.empty()) return view_->order_[i_];
      const Segment& seg = view_->segments_[seg_];
      return Loc{seg_, static_cast<std::uint32_t>(seg.physical(pos_))};
    }
    [[nodiscard]] TimeNs time() const { return view_->time_at(loc()); }
    [[nodiscard]] std::uint64_t seq() const { return view_->seq_at(loc()); }
    void advance() {
      ++i_;
      if (!view_->order_.empty()) return;
      if (++pos_ >= view_->segments_[seg_].rows()) {
        pos_ = 0;
        ++seg_;
      }
    }

   private:
    const SeriesView* view_;
    std::size_t i_ = 0;
    std::uint32_t seg_ = 0;  ///< segment walk, unused when order_ is set
    std::size_t pos_ = 0;
  };

  /// Visits every row in (time, seq) order: fn(Loc, time).  Seqs are not
  /// materialized — the order is a property of the enumeration, and
  /// packed runs decode their seq column lazily (only merge tie-breaks
  /// need it; see seq_at).
  template <class Fn>
  void for_each_row(Fn&& fn) const {
    if (!order_.empty()) {
      for (const Loc& loc : order_) fn(loc, time_at(loc));
      return;
    }
    for (std::uint32_t s = 0; s < segments_.size(); ++s) {
      const Segment& seg = segments_[s];
      for (std::size_t i = 0; i < seg.rows(); ++i) {
        const auto row = static_cast<std::uint32_t>(seg.physical(i));
        const Loc loc{s, row};
        fn(loc, time_at(loc));
      }
    }
  }

  /// Streams field `i`'s present cells over logical rows [first, last) of
  /// a contiguous() view as dense (values, times, n) blocks in row order —
  /// the unpack-to-stack-buffer scan shape the aggregate kernels in
  /// tsdb/simd_kernels.hpp consume.  Raw and pre-decoded columns with no
  /// absent rows pass spans straight through (one call, zero copies);
  /// bit-packed integral columns unpack block-sized stack buffers; ragged
  /// columns gather present cells.  `fn(const double*, const TimeNs*,
  /// std::size_t)`.
  template <class Fn>
  void for_each_value_block(std::size_t i, std::size_t first, std::size_t last,
                            Fn&& fn) const;

  /// Time of the last logical row — the view's maximal time, since rows
  /// are in (time, seq) order.  rows() must be > 0.  Lets aggregate paths
  /// stamp result rows without materializing the merged row list.
  [[nodiscard]] TimeNs last_row_time() const {
    if (!order_.empty()) return time_at(order_.back());
    const Segment& seg = segments_.back();
    const Loc loc{static_cast<std::uint32_t>(segments_.size() - 1),
                  static_cast<std::uint32_t>(seg.physical(seg.rows() - 1))};
    return time_at(loc);
  }

  [[nodiscard]] TagDictionary::TagSetId tagset_id() const {
    return tagset_id_;
  }
  /// Materializes the tag map (dictionary decode) — for callers that need
  /// real strings, e.g. collect() rebuilding Points.
  [[nodiscard]] std::map<std::string, std::string> decode_tags() const {
    return dict_->decode(tagset_id_);
  }
  [[nodiscard]] const TagDictionary::TagSet& tagset() const {
    return dict_->set(tagset_id_);
  }
  [[nodiscard]] const TagDictionary& dict() const { return *dict_; }

 private:
  friend class SeriesViewBuilder;

  /// One clipped run: rows [begin, end), optionally indirected through
  /// `index` (used for an unsorted active run, where the in-range rows are
  /// scattered; index lists them in (time, seq) order).  Packed runs are
  /// always sorted (never indexed); their clipped time range — and any
  /// XOR-encoded field columns, which only decode sequentially — are
  /// decoded once at view build into the d* buffers, indexed by
  /// (physical row - begin).  Seqs only matter on time ties, so dseqs is
  /// decoded lazily on first seq_at (mutable: views are per-query and
  /// single-threaded, so the deferred fill is race-free).
  struct Segment {
    const Run* run = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::vector<std::uint32_t> index;
    std::vector<TimeNs> dtimes;
    mutable std::vector<std::uint64_t> dseqs;
    /// Keyed by the run's packed-field index; empty entry = not decoded.
    std::vector<std::vector<double>> dvalues;

    [[nodiscard]] std::size_t rows() const {
      return index.empty() ? end - begin : index.size();
    }
    [[nodiscard]] std::size_t physical(std::size_t i) const {
      return index.empty() ? begin + i : index[i];
    }
  };

  /// One (field, segment) column slot: exactly one representation set.
  struct ColRef {
    const FieldColumn* raw = nullptr;     ///< unpacked run
    const PackedColumn* packed = nullptr; ///< packed run
    /// Segment-relative decode buffer for kXor columns (aliases the
    /// segment's dvalues entry); indexed by (physical row - begin).
    const double* decoded = nullptr;

    [[nodiscard]] bool missing() const {
      return raw == nullptr && packed == nullptr;
    }
  };

  /// Fills seg.dseqs with the clipped seq range of a packed run (deferred
  /// from view build; most scans never look at seqs).
  void decode_seqs(const Segment& seg) const;

  TagDictionary::TagSetId tagset_id_ = 0;
  const TagDictionary* dict_ = nullptr;
  std::vector<Segment> segments_;
  std::size_t rows_ = 0;
  /// Unified field schema (union over segments, name-sorted).  The
  /// string_views alias the runs' FieldColumn names, which outlive the
  /// view (the scan's shared lock is held).
  std::vector<std::string_view> fields_;
  /// Column table, [field * segment_count + segment]; missing() when that
  /// segment's run lacks the field.
  std::vector<ColRef> cols_;
  /// Empty when concatenating the segments already yields (time, seq)
  /// order; else every row in order.
  std::vector<Loc> order_;
};

template <class Fn>
void SeriesView::for_each_value_block(std::size_t i, std::size_t first,
                                      std::size_t last, Fn&& fn) const {
  const Segment& seg = segments_[0];
  const ColRef& col = cols_[i];  // single segment: slot [i * 1 + 0]
  if (col.missing() || first >= last) return;
  const std::size_t begin = seg.begin + first;  // physical row range
  const std::size_t end = seg.begin + last;

  // Directly addressable value storage, when the encoding has one.
  // raw / packed-kRaw arrays are physical-row indexed; decoded XOR
  // buffers are segment-relative.  nullptr = bit-packed (kInt).
  const double* phys = nullptr;
  if (col.raw != nullptr) {
    phys = col.raw->values.data();
  } else if (col.decoded == nullptr &&
             col.packed->encoding == PackedColumn::Encoding::kRaw) {
    phys = col.packed->raw.data();
  }
  const TimeNs* times = seg.dtimes.empty() ? seg.run->times.data() + begin
                                           : seg.dtimes.data() + first;

  const bool dense = col.raw != nullptr ? col.raw->present.empty()
                                        : col.packed->all_present();
  if (dense && phys != nullptr) {
    fn(phys + begin, times, end - begin);
    return;
  }
  if (dense && col.decoded != nullptr) {
    fn(col.decoded + first, times, end - begin);
    return;
  }

  constexpr std::size_t kBlock = 512;
  if (dense) {
    // kInt, fully present: unpack bit lanes to a stack block, widen to
    // double, hand the block over — no presence branches in the loop.
    std::int64_t ibuf[kBlock];
    double vbuf[kBlock];
    for (std::size_t r = begin; r < end; r += kBlock) {
      const std::size_t n = std::min(kBlock, end - r);
      col.packed->ints.unpack(r, r + n, ibuf);
      for (std::size_t j = 0; j < n; ++j) {
        vbuf[j] = static_cast<double>(ibuf[j]);
      }
      fn(vbuf, times + (r - begin), n);
    }
    return;
  }

  // Ragged column: gather present cells (values and their times) into
  // dense blocks.
  double vbuf[kBlock];
  TimeNs tbuf[kBlock];
  std::size_t n = 0;
  for (std::size_t r = begin; r < end; ++r) {
    const bool here = col.raw != nullptr ? col.raw->present[r] != 0
                                         : col.packed->present.at(r);
    if (!here) continue;
    if (phys != nullptr) {
      vbuf[n] = phys[r];
    } else if (col.decoded != nullptr) {
      vbuf[n] = col.decoded[r - seg.begin];
    } else {
      vbuf[n] = static_cast<double>(col.packed->ints.at(r));
    }
    tbuf[n] = times[r - begin];
    if (++n == kBlock) {
      fn(vbuf, tbuf, n);
      n = 0;
    }
  }
  if (n != 0) fn(vbuf, tbuf, n);
}

/// Builds SeriesViews from series + clip ranges — used by the DB's scan
/// path and by tests that construct views directly.
class SeriesViewBuilder {
 public:
  /// View of `series` clipped to [time_min, time_max].  Returns a view with
  /// rows() == 0 when nothing is in range.
  static SeriesView build(const Series& series, const TagDictionary& dict,
                          TimeNs time_min, TimeNs time_max);
};

/// One row of a multi-view scan in merged order: the (time, seq) key it
/// sorted by, which view, and the opaque position within it.
struct ViewRow {
  TimeNs time;
  std::uint32_t view;
  SeriesView::Loc loc;
};

/// Rows of all views merged into (time, seq) order — the per-measurement
/// point order of the seed row store, which keeps merged evaluation (and
/// its floating-point fold order) bit-for-bit identical.
std::vector<ViewRow> merged_view_rows(std::span<const SeriesView> views);

}  // namespace pmove::tsdb
