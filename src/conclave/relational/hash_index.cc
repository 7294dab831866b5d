#include "conclave/relational/hash_index.h"

#include <algorithm>
#include <bit>

namespace conclave {

HashIndex::HashIndex(const Relation& build, std::span<const int> key_columns) {
  CONCLAVE_CHECK_GT(key_columns.size(), 0u);
  const int64_t rows = build.NumRows();
  keys_.reserve(key_columns.size());
  for (int c : key_columns) {
    keys_.push_back(build.ColumnSpan(c).data());
  }
  const uint64_t capacity =
      std::bit_ceil(std::max<uint64_t>(2, 2 * static_cast<uint64_t>(rows)));
  mask_ = capacity - 1;
  slots_.resize(capacity);

  // One pass: find or open each row's group. Until the row array exists, a
  // group's key is read at its first row.
  std::vector<int64_t> first_rows;
  std::vector<int64_t> group_of(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const uint64_t hash = HashKey(keys_, r);
    Slot& slot = slots_[SlotOf(keys_, r, hash, [&first_rows](int64_t group) {
      return first_rows[static_cast<size_t>(group)];
    })];
    if (slot.group < 0) {
      slot = {hash, static_cast<int64_t>(first_rows.size())};
      first_rows.push_back(r);
    }
    group_of[static_cast<size_t>(r)] = slot.group;
  }

  // Counting pass: group g's size lands in offsets_[g + 2], whose prefix sums
  // put g's start in offsets_[g + 1]; placing the rows in ascending order
  // advances that to g's end, which is where group g + 1 starts.
  const size_t groups = first_rows.size();
  offsets_.assign(groups + 2, 0);
  for (int64_t group : group_of) {
    ++offsets_[static_cast<size_t>(group) + 2];
  }
  for (size_t g = 2; g < offsets_.size(); ++g) {
    offsets_[g] += offsets_[g - 1];
  }
  rows_.resize(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    int64_t& next = offsets_[static_cast<size_t>(group_of[static_cast<size_t>(r)]) + 1];
    rows_[static_cast<size_t>(next++)] = r;
  }
  offsets_.pop_back();
}

}  // namespace conclave
