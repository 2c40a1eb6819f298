// Tag dictionary: string and tag-set interning for the columnar engine.
//
// InfluxDB's TSM engine keys series by (measurement, tag set) and stores the
// tag strings once in a dictionary; the per-point representation is then an
// integer series id.  This class is that dictionary: it interns tag keys and
// values into dense 32-bit string ids and whole tag sets (the sorted
// key=value map of a Point) into dense tag-set ids, so tag filtering inside
// the storage engine becomes integer comparison instead of per-point
// std::map<std::string,...> walks.
//
// Not thread safe on its own: TimeSeriesDb guards it with the same
// shared_mutex that protects the columns (interning mutates under the
// exclusive lock; id lookups run under the shared lock).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pmove::tsdb {

class TagDictionary {
 public:
  using StringId = std::uint32_t;
  using TagSetId = std::uint32_t;

  /// A tag set as stored: (key id, value id) pairs ordered by key *string*
  /// (the order Point::tags iterates in), so decoding reproduces the
  /// original map ordering without re-sorting.
  using TagSet = std::vector<std::pair<StringId, StringId>>;

  /// Id of the empty tag set; interned at construction so every untagged
  /// series shares it.
  static constexpr TagSetId kEmptyTagSet = 0;

  TagDictionary() { (void)intern_set(TagSet{}); }

  /// Interns `s`, returning its id (existing id if already present).
  StringId intern(std::string_view s);

  /// Lookup without interning; nullopt when `s` was never interned — which
  /// means no stored point can match a filter naming it.
  [[nodiscard]] std::optional<StringId> find(std::string_view s) const;

  [[nodiscard]] const std::string& string(StringId id) const {
    return strings_[id];
  }

  /// Interns a whole tag set of interned (key, value) ids, ordered by key
  /// string.
  TagSetId intern_set(TagSet set);

  [[nodiscard]] const TagSet& set(TagSetId id) const { return sets_[id]; }

  /// True when tag set `id` contains key=value (both already interned).
  [[nodiscard]] bool set_contains(TagSetId id, StringId key,
                                  StringId value) const {
    for (const auto& [k, v] : sets_[id]) {
      if (k == key) return v == value;
    }
    return false;
  }

  /// Rebuilds the original Point::tags map.
  [[nodiscard]] std::map<std::string, std::string> decode(TagSetId id) const;

  [[nodiscard]] std::size_t string_count() const { return strings_.size(); }
  [[nodiscard]] std::size_t set_count() const { return sets_.size(); }

  /// Payload bytes held by the dictionary (strings + tag-set pair vectors);
  /// the pmove_tsdb `dict_bytes` gauge.
  [[nodiscard]] std::size_t memory_bytes() const { return memory_bytes_; }

  void clear();

 private:
  std::vector<std::string> strings_;
  std::map<std::string, StringId, std::less<>> ids_;
  std::vector<TagSet> sets_;
  std::map<TagSet, TagSetId> set_ids_;
  std::size_t memory_bytes_ = 0;
};

}  // namespace pmove::tsdb
