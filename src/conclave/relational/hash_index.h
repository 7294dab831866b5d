// Open-addressing hash index over a relation's key columns: built once, then
// probed. Every cleartext join finds its matches here (ops::JoinRowPairs, and
// through it the Grace join's leaves, the secure joins' match steps and the
// STP's pair step), as does SMCQL's per-patient slicing.
//
// Layout. Rows with equal key tuples form a group; groups are numbered in
// first-seen order. The table is a power-of-two array of at least 2 x rows
// slots, probed linearly; a slot holds a key's full 64-bit hash (the
// HashChainStep chain GroupKeyHash uses) and its group id. A counting pass then
// lays every group's rows out contiguously (CSR: offsets per group, one row
// array), ascending. Key equality compares the build relation's cells at the
// group's first row, so the index copies no key tuple and makes no allocation
// per row.
//
// The index borrows the build relation's key columns: the relation must outlive
// the index and stay unchanged while it is probed.
#ifndef CONCLAVE_RELATIONAL_HASH_INDEX_H_
#define CONCLAVE_RELATIONAL_HASH_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "conclave/common/rng.h"
#include "conclave/relational/relation.h"

namespace conclave {

class HashIndex {
 public:
  // Indexes every row of `build` by the cells of `key_columns` (non-empty).
  HashIndex(const Relation& build, std::span<const int> key_columns);

  // The group whose key equals the cells of `probe_columns` at `row` (one
  // column per key column, in key order), or -1 when no build row has that key.
  int64_t Find(std::span<const int64_t* const> probe_columns, int64_t row) const {
    CONCLAVE_DCHECK(probe_columns.size() == keys_.size());
    return slots_[SlotOf(probe_columns, row, HashKey(probe_columns, row),
                         [this](int64_t group) { return rows_[offsets_[group]]; })]
        .group;
  }

  // The build rows of `group`, ascending.
  std::span<const int64_t> Rows(int64_t group) const {
    const int64_t begin = offsets_[static_cast<size_t>(group)];
    return {rows_.data() + begin,
            static_cast<size_t>(offsets_[static_cast<size_t>(group) + 1] - begin)};
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t group = -1;  // -1: empty.
  };

  static uint64_t HashKey(std::span<const int64_t* const> columns, int64_t row) {
    uint64_t hash = kHashChainSeed;
    for (const int64_t* column : columns) {
      hash = HashChainStep(hash, static_cast<uint64_t>(column[row]));
    }
    return hash;
  }

  // The slot holding the group whose key equals `columns` at `row`, or the
  // empty slot that ends its probe sequence. `first_row(group)` is the build
  // row whose cells stand for the group's key.
  template <typename FirstRow>
  size_t SlotOf(std::span<const int64_t* const> columns, int64_t row, uint64_t hash,
                const FirstRow& first_row) const {
    for (uint64_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.group < 0 ||
          (slot.hash == hash && SameKey(columns, row, first_row(slot.group)))) {
        return static_cast<size_t>(i);
      }
    }
  }

  bool SameKey(std::span<const int64_t* const> columns, int64_t row,
               int64_t build_row) const {
    for (size_t c = 0; c < keys_.size(); ++c) {
      if (columns[c][row] != keys_[c][build_row]) {
        return false;
      }
    }
    return true;
  }

  std::vector<const int64_t*> keys_;  // Borrowed build key columns.
  uint64_t mask_ = 0;                 // Slot count - 1.
  std::vector<Slot> slots_;
  std::vector<int64_t> offsets_;  // Group g's rows: rows_[offsets_[g], offsets_[g + 1]).
  std::vector<int64_t> rows_;
};

}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_HASH_INDEX_H_
