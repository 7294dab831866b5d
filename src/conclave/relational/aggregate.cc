#include "conclave/relational/aggregate.h"

#include <algorithm>
#include <utility>

#include "conclave/common/cpu.h"
#include "conclave/common/thread_pool.h"

namespace conclave {

void AggAccumulator::Merge(const AggAccumulator& other) {
  sum = cpu::AddWrap(sum, other.sum);
  count = cpu::AddWrap(count, other.count);
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

int64_t AggAccumulator::Finalize(AggKind kind) const {
  switch (kind) {
    case AggKind::kSum:
      return sum;
    case AggKind::kCount:
      return count;
    case AggKind::kMin:
      return min;
    case AggKind::kMax:
      return max;
    case AggKind::kMean:
      return count == 0 ? 0 : sum / count;
  }
  return 0;
}

void AggAccumulator::ToPartial(AggKind kind, int64_t* cells) const {
  if (kind == AggKind::kMean) {
    cells[0] = sum;
    cells[1] = count;
  } else {
    cells[0] = Finalize(kind);
  }
}

AggAccumulator AggAccumulator::FromPartial(AggKind kind, const int64_t* cells) {
  AggAccumulator acc;
  switch (kind) {
    case AggKind::kSum:
      acc.sum = cells[0];
      break;
    case AggKind::kCount:
      acc.count = cells[0];
      break;
    case AggKind::kMin:
      acc.min = cells[0];
      break;
    case AggKind::kMax:
      acc.max = cells[0];
      break;
    case AggKind::kMean:
      acc.sum = cells[0];
      acc.count = cells[1];
      break;
  }
  return acc;
}

BatchView BatchView::Of(const Relation& relation) {
  BatchView view;
  view.columns.reserve(static_cast<size_t>(relation.NumColumns()));
  for (int c = 0; c < relation.NumColumns(); ++c) {
    view.columns.push_back(relation.ColumnSpan(c).data());
  }
  view.rows = relation.NumRows();
  view.counted = view.rows;
  return view;
}

namespace {

// Adds row `r` to the fields `kind` finalizes from; `vals` is null for kCount,
// which reads no column.
inline void AddRow(AggAccumulator& acc, AggKind kind, const int64_t* vals, int64_t r) {
  switch (kind) {
    case AggKind::kSum:
      acc.sum = cpu::AddWrap(acc.sum, vals[r]);
      return;
    case AggKind::kCount:
      acc.count += 1;
      return;
    case AggKind::kMin:
      acc.min = std::min(acc.min, vals[r]);
      return;
    case AggKind::kMax:
      acc.max = std::max(acc.max, vals[r]);
      return;
    case AggKind::kMean:
      acc.sum = cpu::AddWrap(acc.sum, vals[r]);
      acc.count += 1;
      return;
  }
}

// Adds the `counted` rows of vals[0, n) that `mask` keeps (all of them when it
// is null) to `acc` with the kind's one reduction: the same wrap sum, count,
// min or max as adding them row by row.
void AddRun(AggAccumulator& acc, AggKind kind, const int64_t* vals,
            const uint8_t* mask, size_t n, int64_t counted) {
  switch (kind) {
    case AggKind::kSum:
      acc.sum = cpu::AddWrap(acc.sum, cpu::SumWrap(vals, mask, n));
      return;
    case AggKind::kCount:
      acc.count += counted;
      return;
    case AggKind::kMin:
      acc.min = std::min(acc.min, cpu::MinOf(vals, mask, n));
      return;
    case AggKind::kMax:
      acc.max = std::max(acc.max, cpu::MaxOf(vals, mask, n));
      return;
    case AggKind::kMean:
      acc.sum = cpu::AddWrap(acc.sum, cpu::SumWrap(vals, mask, n));
      acc.count += counted;
      return;
  }
}

// Single group column fast path: int64 keys scanned contiguously. Sorted or
// low-cardinality inputs often present whole ranges of one group. Keys equal
// over a whole range are equal among its counted rows, so such a range
// collapses to one masked reduction.
void AccumulateSingleKey(std::unordered_map<int64_t, AggAccumulator>& groups,
                         AggKind kind, const int64_t* keys, const int64_t* vals,
                         const uint8_t* mask, int64_t lo, int64_t hi) {
  const size_t n = static_cast<size_t>(hi - lo);
  if (cpu::AllEqual(keys + lo, n)) {
    const int64_t counted =
        mask == nullptr ? hi - lo : static_cast<int64_t>(cpu::CountMask(mask + lo, n));
    if (counted > 0) {  // No counting row, no group.
      AddRun(groups[keys[lo]], kind, vals == nullptr ? nullptr : vals + lo,
             mask == nullptr ? nullptr : mask + lo, n, counted);
    }
    return;
  }
  for (int64_t r = lo; r < hi; ++r) {
    if (mask == nullptr || mask[r] != 0) {
      AddRow(groups[keys[r]], kind, vals, r);
    }
  }
}

void AccumulateMultiKey(
    std::unordered_map<std::vector<int64_t>, AggAccumulator, GroupKeyHash>& groups,
    AggKind kind, std::span<const int64_t* const> keys, const int64_t* vals,
    const uint8_t* mask, int64_t lo, int64_t hi) {
  std::vector<int64_t> key(keys.size());
  for (int64_t r = lo; r < hi; ++r) {
    if (mask != nullptr && mask[r] == 0) {
      continue;
    }
    for (size_t c = 0; c < keys.size(); ++c) {
      key[c] = keys[c][r];
    }
    AddRow(groups[key], kind, vals, r);
  }
}

// Accumulates [lo, hi) into `groups`: inline within one morsel, else
// pre-combined per morsel into private maps that merge in range order.
template <typename Map, typename Accumulate>
void ConsumeRange(Map& groups, int64_t lo, int64_t hi, const Accumulate& accumulate) {
  const int64_t grain = kDefaultGrainRows;
  if (hi - lo <= grain) {
    accumulate(groups, lo, hi);
    return;
  }
  std::vector<Map> partials(static_cast<size_t>((hi - lo + grain - 1) / grain));
  ParallelFor(lo, hi, [&](int64_t a, int64_t b) {
    accumulate(partials[static_cast<size_t>((a - lo) / grain)], a, b);
  }, grain);
  for (Map& partial : partials) {
    if (groups.empty()) {
      groups = std::move(partial);
      continue;
    }
    for (const auto& [key, acc] : partial) {
      groups[key].Merge(acc);
    }
  }
}

}  // namespace

GroupAggregator::GroupAggregator(const Schema& input_schema,
                                 std::span<const int> group_columns, AggKind kind,
                                 int agg_column, const std::string& output_name)
    : group_columns_(group_columns.begin(), group_columns.end()),
      kind_(kind),
      agg_column_(agg_column) {
  std::vector<ColumnDef> defs;
  for (int c : group_columns_) {
    defs.push_back(input_schema.Column(c));
  }
  defs.emplace_back(output_name);
  output_schema_ = Schema(defs);
  if (kind == AggKind::kMean) {
    defs.emplace_back("__spill_count");
  }
  partial_schema_ = Schema(std::move(defs));
}

void GroupAggregator::Consume(const BatchView& batch, int64_t lo, int64_t hi) {
  if (hi <= lo) {
    return;
  }
  const int64_t* const vals = kind_ == AggKind::kCount
                                  ? nullptr
                                  : batch.columns[static_cast<size_t>(agg_column_)];
  const uint8_t* const mask = batch.mask;
  if (group_columns_.size() == 1) {
    const int64_t* const keys = batch.columns[static_cast<size_t>(group_columns_[0])];
    ConsumeRange(single_, lo, hi, [&](SingleKeyMap& groups, int64_t a, int64_t b) {
      AccumulateSingleKey(groups, kind_, keys, vals, mask, a, b);
    });
    return;
  }
  std::vector<const int64_t*> keys;
  keys.reserve(group_columns_.size());
  for (int c : group_columns_) {
    keys.push_back(batch.columns[static_cast<size_t>(c)]);
  }
  ConsumeRange(multi_, lo, hi, [&](MultiKeyMap& groups, int64_t a, int64_t b) {
    AccumulateMultiKey(groups, kind_, keys, vals, mask, a, b);
  });
}

int64_t GroupAggregator::NumGroups() const {
  return static_cast<int64_t>(group_columns_.size() == 1 ? single_.size()
                                                         : multi_.size());
}

Relation GroupAggregator::Finish() { return Emit(/*partial=*/false); }

Relation GroupAggregator::FinishPartial() { return Emit(/*partial=*/true); }

Relation GroupAggregator::Emit(bool partial) {
  Relation output{partial ? partial_schema_ : output_schema_};
  const int key_cols = static_cast<int>(group_columns_.size());
  const int value_cols = partial ? AggAccumulator::PartialWidth(kind_) : 1;
  std::vector<int64_t*> out(static_cast<size_t>(key_cols + value_cols));
  // Writes one group's row: its key cells were written by the caller.
  const auto write_value = [&](size_t row, const AggAccumulator& acc) {
    if (partial) {
      int64_t cells[2] = {0, 0};
      acc.ToPartial(kind_, cells);
      for (int v = 0; v < value_cols; ++v) {
        out[static_cast<size_t>(key_cols + v)][row] = cells[v];
      }
    } else {
      out[static_cast<size_t>(key_cols)][row] = acc.Finalize(kind_);
    }
  };
  // Group keys are emitted sorted, making the output order deterministic.
  if (key_cols == 1) {
    std::vector<std::pair<int64_t, AggAccumulator>> entries(single_.begin(),
                                                            single_.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    output.Resize(static_cast<int64_t>(entries.size()));
    for (size_t c = 0; c < out.size(); ++c) {
      out[c] = output.ColumnData(static_cast<int>(c));
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      out[0][i] = entries[i].first;
      write_value(i, entries[i].second);
    }
    single_.clear();
    return output;
  }
  std::vector<const MultiKeyMap::value_type*> entries;
  entries.reserve(multi_.size());
  for (const auto& entry : multi_) {
    entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  output.Resize(static_cast<int64_t>(entries.size()));
  for (size_t c = 0; c < out.size(); ++c) {
    out[c] = output.ColumnData(static_cast<int>(c));
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    for (int c = 0; c < key_cols; ++c) {
      out[static_cast<size_t>(c)][i] = entries[i]->first[static_cast<size_t>(c)];
    }
    write_value(i, entries[i]->second);
  }
  multi_.clear();
  return output;
}

}  // namespace conclave
