#include "tsdb/dict.hpp"

namespace pmove::tsdb {

TagDictionary::StringId TagDictionary::intern(std::string_view s) {
  if (auto it = ids_.find(s); it != ids_.end()) return it->second;
  const StringId id = static_cast<StringId>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  // The map node holds a second copy of the string; count both plus the
  // id payload so the gauge tracks what interning actually costs.
  memory_bytes_ += 2 * s.size() + sizeof(StringId);
  return id;
}

std::optional<TagDictionary::StringId> TagDictionary::find(
    std::string_view s) const {
  if (auto it = ids_.find(s); it != ids_.end()) return it->second;
  return std::nullopt;
}

TagDictionary::TagSetId TagDictionary::intern_set(TagSet set) {
  if (auto it = set_ids_.find(set); it != set_ids_.end()) return it->second;
  const TagSetId id = static_cast<TagSetId>(sets_.size());
  memory_bytes_ += 2 * set.size() * sizeof(std::pair<StringId, StringId>);
  sets_.push_back(set);
  set_ids_.emplace(std::move(set), id);
  return id;
}

std::map<std::string, std::string> TagDictionary::decode(TagSetId id) const {
  std::map<std::string, std::string> tags;
  for (const auto& [k, v] : sets_[id]) {
    tags.emplace(strings_[k], strings_[v]);
  }
  return tags;
}

void TagDictionary::clear() {
  strings_.clear();
  ids_.clear();
  sets_.clear();
  set_ids_.clear();
  memory_bytes_ = 0;
  (void)intern_set(TagSet{});
}

}  // namespace pmove::tsdb
