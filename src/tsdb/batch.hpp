// Flat batch of points: the write path's unit from line protocol to columns.
//
// A Point holds two std::maps, so a 16-field line costs 17 heap nodes that
// the producer allocates and a shard worker frees.  A PointBatch holds the
// same data in a handful of flat arrays instead:
//
//   * rows   — per point: its series (index into the batch's series), the
//              time, and a span of fields;
//   * series — per distinct (measurement, tag set) of the batch: the
//              canonical key (the escaped "measurement,k=v,..." head that
//              Point::to_line() renders, tags sorted, last tag wins), its
//              64-bit hash, the measurement and the tag pairs;
//   * fields — per point: (name, value) sorted by name, last one of a
//              duplicated name wins — exactly what Point::fields holds.
//
// Every string lives in one arena and is referenced by offset, so a batch
// is a few vectors that move through queues without touching the heap per
// point.  The series key is what the storage engine's series index and the
// ingest shard router both hash (InfluxDB's TSM keys series the same way):
// a line whose head has no backslash, no '=' in the measurement and
// strictly ascending tag keys is already canonical, so its key is the line's
// own bytes and costs no copy.
//
// append_line() is the one line-protocol grammar of the project;
// Point::from_line is a one-row wrapper over it.  Sampler lines of a batch
// repeat one field layout, so the parser keeps the layout of the last line
// it parsed in full: a line whose field names spell that layout again (each
// name followed by '=') takes its names and sorted order from it and writes
// each value straight into its sorted slot.  Any other line, and any value
// that is not a plain number, goes through the full grammar.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/point.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace pmove::tsdb {

class PointBatch {
 public:
  /// A string in the batch's arena.
  struct Text {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  struct Tag {
    Text key;
    Text value;
  };
  struct Field {
    Text name;
    double value = 0.0;
  };
  /// One distinct series of the batch.
  struct Series {
    Text key;                ///< canonical escaped head
    std::uint64_t hash = 0;  ///< hash_key(key)
    Text measurement;        ///< unescaped
    std::uint32_t first_tag = 0;
    std::uint32_t tag_count = 0;  ///< sorted by key, keys unique
  };
  struct Row {
    std::uint32_t series = 0;
    std::uint32_t first_field = 0;
    std::uint32_t field_count = 0;  ///< >= 1, sorted by name, names unique
    TimeNs time = 0;
  };

  /// Parses newline-separated line protocol; blank (all-whitespace) lines
  /// are skipped.  All or nothing: the first bad line's error is returned.
  static Expected<PointBatch> parse(std::string_view text);

  /// Converts Points; rejects the whole vector if one point has no
  /// measurement or no fields (kInvalidArgument).
  static Expected<PointBatch> from_points(const std::vector<Point>& points);

  /// Appends every line of `text` (split on '\n', blank lines skipped).
  /// On a bad line, the rows of the lines before it stay in the batch and
  /// `*bad_line` (when given) receives that line's 1-based number in
  /// `text`.
  Status append_lines(std::string_view text, std::size_t* bad_line = nullptr);

  /// Appends exactly one line; '\n' is an ordinary byte here.  Leaves the
  /// batch unchanged on error.
  Status append_line(std::string_view line);

  /// Appends one point; kInvalidArgument (batch unchanged) when it has no
  /// measurement or no fields.
  Status append_point(const Point& point);

  /// Empties the batch but keeps its capacity.  An arena still shared with
  /// split() parts is left to them; the batch starts a new one.
  void clear();

  [[nodiscard]] std::vector<Point> to_points() const;
  [[nodiscard]] Point point(std::size_t row) const;

  /// Every row as Point::to_line() renders it, one per line.
  [[nodiscard]] std::string to_text() const;

  /// Routes rows to `parts` batches by series hash modulo `parts`, keeping
  /// row order within each part.  The parts share this batch's arena.
  [[nodiscard]] std::vector<PointBatch> split(std::size_t parts) const;

  [[nodiscard]] bool empty() const { return rows_.empty(); }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] std::span<const Row> rows() const { return rows_; }
  [[nodiscard]] std::span<const Series> series() const { return series_; }
  [[nodiscard]] std::span<const Tag> tags(const Series& s) const {
    return std::span<const Tag>(tags_).subspan(s.first_tag, s.tag_count);
  }
  [[nodiscard]] std::span<const Field> fields(const Row& r) const {
    return std::span<const Field>(fields_).subspan(r.first_field,
                                                   r.field_count);
  }
  [[nodiscard]] std::string_view text(Text t) const {
    return std::string_view(arena_->data() + t.offset, t.size);
  }

  /// The canonical key of (measurement, tags) — the head Point::to_line()
  /// renders — and the hash every series index and shard router uses.
  static std::string key_of(std::string_view measurement,
                            const std::map<std::string, std::string>& tags);
  static std::uint64_t hash_key(std::string_view key);

 private:
  /// The arena for writing; copied first while split() parts share it.
  std::string& arena();
  Text put(std::string_view s);
  /// False when `more` bytes would push arena offsets past 32 bits.
  [[nodiscard]] bool fits(std::size_t more) const;
  /// Arena text of token `raw` of `line`, whose first byte sits at arena
  /// offset `offset`: the token's own bytes when unescaped, else an
  /// unescaped copy.
  Text arena_text(std::string_view raw, bool escaped, std::string_view line,
                  std::size_t offset);
  /// Parses one line whose first byte sits at arena offset `offset`;
  /// commits nothing on error (the caller truncates the arena).
  Status parse_line(std::string_view line, std::size_t offset);
  /// Parses the field set after the separator at `pos` through the full
  /// grammar into line_fields_, in input order; leaves `pos` after the
  /// last value.
  Status parse_fields(std::string_view line, std::size_t& pos,
                      std::size_t offset);
  /// Appends line_fields_ to fields_, sorted through the layout (made
  /// from them when their names differ from it).
  void place_fields();
  /// The layout fast path: true when the field set after `pos` spells the
  /// layout's names in order, its values then in fields_ at their sorted
  /// slots.  False (fields_ unchanged) on any difference.
  bool match_layout(std::string_view line, std::size_t& pos);
  /// Makes the names of fields_[first..] (input order) the layout.
  void set_layout(std::size_t first);
  /// The batch series whose canonical key is `key` (hashing to `hash`).
  [[nodiscard]] std::optional<std::uint32_t> find_series(
      std::string_view key, std::uint64_t hash) const;
  std::uint32_t add_series(Text key, std::uint64_t hash, Text measurement,
                           std::span<const Tag> tags);
  void grow_slots();

  std::shared_ptr<std::string> arena_;
  std::vector<Row> rows_;
  std::vector<Series> series_;
  std::vector<Tag> tags_;
  std::vector<Field> fields_;
  /// Open-addressing table over series_ (index + 1; 0 = empty), so each
  /// distinct series of the batch is stored once.
  std::vector<std::uint32_t> slots_;

  // Parse scratch, reused across lines.
  std::string key_scratch_;
  std::vector<Tag> line_tags_;
  std::vector<Field> line_fields_;
  /// The field layout of the last line parsed in full: its names in input
  /// order, each one's slot among the sorted, de-duplicated names (the last
  /// of a duplicated name wins by being written last), and the sorted row
  /// with zero values.  `layout_plain_` says no name holds a byte that line
  /// protocol escapes, so its raw spelling is its own text.
  std::vector<Text> layout_names_;
  std::vector<std::uint32_t> layout_slots_;
  std::vector<Field> layout_row_;
  bool layout_plain_ = false;
};

}  // namespace pmove::tsdb
