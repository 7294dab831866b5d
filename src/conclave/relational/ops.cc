#include "conclave/relational/ops.h"

#include <algorithm>
#include <numeric>

#include "conclave/common/cpu.h"
#include "conclave/common/strings.h"
#include "conclave/common/thread_pool.h"
#include "conclave/relational/aggregate.h"
#include "conclave/relational/hash_index.h"

namespace conclave {

// The cpu:: kernel enums mirror the relational enums member-for-member so the
// kernels can be dispatched with a cast (common/ cannot include relational/).
static_assert(static_cast<int>(cpu::Cmp::kEq) == static_cast<int>(CompareOp::kEq) &&
              static_cast<int>(cpu::Cmp::kNe) == static_cast<int>(CompareOp::kNe) &&
              static_cast<int>(cpu::Cmp::kLt) == static_cast<int>(CompareOp::kLt) &&
              static_cast<int>(cpu::Cmp::kLe) == static_cast<int>(CompareOp::kLe) &&
              static_cast<int>(cpu::Cmp::kGt) == static_cast<int>(CompareOp::kGt) &&
              static_cast<int>(cpu::Cmp::kGe) == static_cast<int>(CompareOp::kGe));
static_assert(
    static_cast<int>(cpu::Arith::kAdd) == static_cast<int>(ArithKind::kAdd) &&
    static_cast<int>(cpu::Arith::kSub) == static_cast<int>(ArithKind::kSub) &&
    static_cast<int>(cpu::Arith::kMul) == static_cast<int>(ArithKind::kMul) &&
    static_cast<int>(cpu::Arith::kDiv) == static_cast<int>(ArithKind::kDiv));

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCompare(CompareOp op, int64_t lhs, int64_t rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kCount:
      return "count";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kMean:
      return "mean";
  }
  return "?";
}

const char* WindowFnName(WindowFn fn) {
  switch (fn) {
    case WindowFn::kRowNumber:
      return "row_number";
    case WindowFn::kLag:
      return "lag";
    case WindowFn::kRunningSum:
      return "running_sum";
  }
  return "?";
}

const char* ArithKindName(ArithKind kind) {
  switch (kind) {
    case ArithKind::kAdd:
      return "+";
    case ArithKind::kSub:
      return "-";
    case ArithKind::kMul:
      return "*";
    case ArithKind::kDiv:
      return "/";
  }
  return "?";
}

namespace ops {
namespace {

// Base pointers of the given columns; hoists the per-access column lookup out of
// row loops (comparators, join probes).
std::vector<const int64_t*> ColumnPtrs(const Relation& rel,
                                       std::span<const int> columns) {
  std::vector<const int64_t*> ptrs;
  ptrs.reserve(columns.size());
  for (int c : columns) {
    ptrs.push_back(rel.ColumnSpan(c).data());
  }
  return ptrs;
}

// Lexicographic three-way compare of two rows restricted to the given columns.
int CompareRowsAt(std::span<const int64_t* const> columns, int64_t row_a,
                  int64_t row_b) {
  for (const int64_t* column : columns) {
    const int64_t a = column[row_a];
    const int64_t b = column[row_b];
    if (a < b) {
      return -1;
    }
    if (a > b) {
      return 1;
    }
  }
  return 0;
}

// Stitches per-morsel index buffers (chunk order == row order) into one selection
// vector. Shared by every selection-producing kernel so the output row order is
// the serial scan order at any pool size.
std::vector<int64_t> ConcatPartials(std::vector<std::vector<int64_t>> partials) {
  size_t total = 0;
  for (const auto& partial : partials) {
    total += partial.size();
  }
  std::vector<int64_t> merged;
  merged.reserve(total);
  for (const auto& partial : partials) {
    merged.insert(merged.end(), partial.begin(), partial.end());
  }
  return merged;
}

}  // namespace

void GatherColumnInto(const Relation& src, int src_col,
                      std::span<const int64_t> rows, int64_t* dst) {
  // Contiguous-destination gather; morsels write disjoint ranges, so the result
  // is byte-identical to the serial loop.
  const int64_t* const column = rows.empty() ? nullptr : src.ColumnSpan(src_col).data();
  ParallelFor(0, static_cast<int64_t>(rows.size()), [&](int64_t lo, int64_t hi) {
    cpu::GatherI64(column, rows.data() + lo, static_cast<size_t>(hi - lo),
                   dst + lo);
  });
}

Relation GatherRows(const Relation& input, std::span<const int64_t> rows) {
  Relation output{input.schema()};
  output.Resize(static_cast<int64_t>(rows.size()));
  for (int c = 0; c < input.NumColumns(); ++c) {
    GatherColumnInto(input, c, rows, output.ColumnData(c));
  }
  return output;
}

Relation Project(const Relation& input, std::span<const int> columns) {
  std::vector<ColumnDef> defs;
  defs.reserve(columns.size());
  for (int c : columns) {
    defs.push_back(input.schema().Column(c));
  }
  Relation output{Schema(std::move(defs))};
  output.Resize(input.NumRows());
  // Column-major projection is K whole-column copies — no per-row work at all.
  for (size_t i = 0; i < columns.size(); ++i) {
    const auto src = input.ColumnSpan(columns[i]);
    std::copy(src.begin(), src.end(), output.ColumnData(static_cast<int>(i)));
  }
  return output;
}

namespace {

// Selection pass shared by Filter: emits the indices of passing rows in scan
// order via the dispatched cpu::SelectCompare kernel — each morsel writes into
// a full-width local buffer, then shrinks to the match count.
std::vector<int64_t> SelectRows(CompareOp op, const int64_t* lhs,
                                const int64_t* rhs, int64_t rhs_literal,
                                int64_t rows) {
  const int64_t grain = kDefaultGrainRows;
  const int64_t num_chunks = rows == 0 ? 0 : (rows + grain - 1) / grain;
  std::vector<std::vector<int64_t>> partials(static_cast<size_t>(num_chunks));
  ParallelFor(0, rows, [&](int64_t lo, int64_t hi) {
    std::vector<int64_t>& local = partials[static_cast<size_t>(lo / grain)];
    local.resize(static_cast<size_t>(hi - lo));
    const size_t count = cpu::SelectCompare(
        static_cast<cpu::Cmp>(op), lhs + lo, rhs != nullptr ? rhs + lo : nullptr,
        rhs_literal, /*base=*/lo, static_cast<size_t>(hi - lo), local.data());
    local.resize(count);
  }, grain);
  return ConcatPartials(std::move(partials));
}

}  // namespace

Relation Filter(const Relation& input, const FilterPredicate& predicate) {
  const int64_t rows = input.NumRows();
  const int64_t* const lhs =
      rows == 0 ? nullptr : input.ColumnSpan(predicate.column).data();
  const int64_t* const rhs = (rows == 0 || !predicate.rhs_is_column)
                                 ? nullptr
                                 : input.ColumnSpan(predicate.rhs_column).data();
  return GatherRows(input,
                    SelectRows(predicate.op, lhs, rhs, predicate.rhs_literal, rows));
}

Schema JoinOutputSchema(const Schema& left, const Schema& right,
                        std::span<const int> left_keys,
                        std::span<const int> right_keys,
                        std::vector<int>* left_rest, std::vector<int>* right_rest) {
  CONCLAVE_CHECK_EQ(left_keys.size(), right_keys.size());
  CONCLAVE_CHECK_GT(left_keys.size(), 0u);
  std::vector<ColumnDef> defs;
  for (int c : left_keys) {
    defs.push_back(left.Column(c));
  }
  for (int c = 0; c < left.NumColumns(); ++c) {
    if (std::find(left_keys.begin(), left_keys.end(), c) == left_keys.end()) {
      defs.push_back(left.Column(c));
      if (left_rest != nullptr) {
        left_rest->push_back(c);
      }
    }
  }
  for (int c = 0; c < right.NumColumns(); ++c) {
    if (std::find(right_keys.begin(), right_keys.end(), c) == right_keys.end()) {
      defs.push_back(right.Column(c));
      if (right_rest != nullptr) {
        right_rest->push_back(c);
      }
    }
  }
  return Schema(std::move(defs));
}

void JoinRowPairs(const Relation& left, const Relation& right,
                  std::span<const int> left_keys, std::span<const int> right_keys,
                  std::vector<int64_t>* left_rows, std::vector<int64_t>* right_rows) {
  CONCLAVE_CHECK_EQ(left_keys.size(), right_keys.size());
  JoinRowPairs(left, left_keys, HashIndex(right, right_keys), left_rows, right_rows);
}

void JoinRowPairs(const Relation& left, std::span<const int> left_keys,
                  const HashIndex& right_index, std::vector<int64_t>* left_rows,
                  std::vector<int64_t>* right_rows) {
  left_rows->clear();
  right_rows->clear();
  const auto probe = ColumnPtrs(left, left_keys);
  for (int64_t lr = 0; lr < left.NumRows(); ++lr) {
    const int64_t group = right_index.Find(probe, lr);
    if (group < 0) {
      continue;
    }
    for (int64_t rr : right_index.Rows(group)) {
      left_rows->push_back(lr);
      right_rows->push_back(rr);
    }
  }
}

Relation GatherJoinRows(const Relation& left, const Relation& right,
                        std::span<const int> left_keys, std::span<const int> right_keys,
                        std::span<const int64_t> left_rows,
                        std::span<const int64_t> right_rows) {
  std::vector<int> left_rest;
  std::vector<int> right_rest;
  Relation output{JoinOutputSchema(left.schema(), right.schema(), left_keys,
                                   right_keys, &left_rest, &right_rest)};
  // Assemble per output column: contiguous gathers from the owning side.
  output.Resize(static_cast<int64_t>(left_rows.size()));
  int out_col = 0;
  for (int c : left_keys) {
    GatherColumnInto(left, c, left_rows, output.ColumnData(out_col++));
  }
  for (int c : left_rest) {
    GatherColumnInto(left, c, left_rows, output.ColumnData(out_col++));
  }
  for (int c : right_rest) {
    GatherColumnInto(right, c, right_rows, output.ColumnData(out_col++));
  }
  return output;
}

Relation Join(const Relation& left, const Relation& right,
              std::span<const int> left_keys, std::span<const int> right_keys) {
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  JoinRowPairs(left, right, left_keys, right_keys, &left_rows, &right_rows);
  return GatherJoinRows(left, right, left_keys, right_keys, left_rows, right_rows);
}

Relation Aggregate(const Relation& input, std::span<const int> group_columns,
                   AggKind kind, int agg_column, const std::string& output_name) {
  GroupAggregator aggregator(input.schema(), group_columns, kind, agg_column,
                             output_name);
  aggregator.Consume(input, 0, input.NumRows());
  return aggregator.Finish();
}

Relation Concat(std::span<const Relation> inputs) {
  std::vector<const Relation*> ptrs;
  ptrs.reserve(inputs.size());
  for (const Relation& rel : inputs) {
    ptrs.push_back(&rel);
  }
  return Concat(std::span<const Relation* const>(ptrs));
}

Relation Concat(std::span<const Relation* const> inputs) {
  CONCLAVE_CHECK_GT(inputs.size(), 0u);
  for (const Relation* rel : inputs.subspan(1)) {
    CONCLAVE_CHECK(inputs[0]->schema().NamesMatch(rel->schema()));
  }
  Relation output{inputs[0]->schema()};
  std::vector<int64_t> offsets(inputs.size());
  int64_t total_rows = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    offsets[i] = total_rows;
    total_rows += inputs[i]->NumRows();
  }
  output.Resize(total_rows);
  // Column-major concat is inputs x columns contiguous range copies, in parallel;
  // each copy writes a disjoint pre-sized range.
  const int cols = output.NumColumns();
  ParallelFor(0, static_cast<int64_t>(inputs.size()), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const Relation& src = *inputs[static_cast<size_t>(i)];
      for (int c = 0; c < cols; ++c) {
        const auto column = src.ColumnSpan(c);
        std::copy(column.begin(), column.end(),
                  output.ColumnData(c) + offsets[static_cast<size_t>(i)]);
      }
    }
  }, /*grain=*/1);
  return output;
}

std::vector<int64_t> SortedOrder(const Relation& input, std::span<const int> columns,
                                 bool ascending) {
  std::vector<int64_t> order(static_cast<size_t>(input.NumRows()));
  std::iota(order.begin(), order.end(), 0);
  // Sorting is genuinely row-oriented: the comparator walks the sort columns via
  // hoisted base pointers.
  const auto sort_cols = ColumnPtrs(input, columns);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const int cmp = CompareRowsAt(sort_cols, a, b);
    return ascending ? cmp < 0 : cmp > 0;
  });
  return order;
}

Relation SortBy(const Relation& input, std::span<const int> columns, bool ascending) {
  return GatherRows(input, SortedOrder(input, columns, ascending));
}

Relation Distinct(const Relation& input, std::span<const int> columns) {
  Relation projected = Project(input, columns);
  // Order row indices lexicographically, then keep the first row of each run of
  // equal rows; matches the historical sort+unique over materialized row tuples.
  std::vector<int64_t> order(static_cast<size_t>(projected.NumRows()));
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> all_columns(static_cast<size_t>(projected.NumColumns()));
  std::iota(all_columns.begin(), all_columns.end(), 0);
  const auto cols = ColumnPtrs(projected, all_columns);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return CompareRowsAt(cols, a, b) < 0;
  });
  std::vector<int64_t> unique;
  unique.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || CompareRowsAt(cols, order[i - 1], order[i]) != 0) {
      unique.push_back(order[i]);
    }
  }
  return GatherRows(projected, unique);
}

Relation Limit(const Relation& input, int64_t count) {
  CONCLAVE_CHECK_GE(count, 0);
  return Slice(input, 0, std::min(count, input.NumRows()));
}

Relation Slice(const Relation& input, int64_t begin, int64_t end) {
  CONCLAVE_CHECK(begin >= 0 && begin <= end && end <= input.NumRows());
  Relation output{input.schema()};
  output.Resize(end - begin);
  for (int c = 0; c < input.NumColumns(); ++c) {
    const auto src = input.ColumnSpan(c);
    std::copy(src.begin() + begin, src.begin() + end, output.ColumnData(c));
  }
  return output;
}

Relation Arithmetic(const Relation& input, const ArithSpec& spec) {
  std::vector<ColumnDef> defs = input.schema().columns();
  defs.emplace_back(spec.result_name);
  Relation output{Schema(std::move(defs))};
  const int64_t rows = input.NumRows();
  output.Resize(rows);
  // Pass-through columns copy wholesale; the computed column is one contiguous
  // loop over the operand columns (auto-vectorizes for every ArithKind).
  for (int c = 0; c < input.NumColumns(); ++c) {
    const auto src = input.ColumnSpan(c);
    std::copy(src.begin(), src.end(), output.ColumnData(c));
  }
  const int64_t* const lhs = rows == 0 ? nullptr : input.ColumnSpan(spec.lhs_column).data();
  const int64_t* const rhs = (rows == 0 || !spec.rhs_is_column)
                                 ? nullptr
                                 : input.ColumnSpan(spec.rhs_column).data();
  int64_t* const out = output.ColumnData(input.NumColumns());
  const int64_t literal = spec.rhs_literal;
  const int64_t scale = spec.scale;
  ParallelFor(0, rows, [&](int64_t lo, int64_t hi) {
    cpu::ArithColumn(static_cast<cpu::Arith>(spec.kind), lhs + lo,
                     rhs != nullptr ? rhs + lo : nullptr, literal, scale,
                     static_cast<size_t>(hi - lo), out + lo);
  });
  return output;
}

Relation Window(const Relation& input, const WindowSpec& spec) {
  // Evaluate in (partition, order) order; the sorted relation is also the output's
  // row order, so downstream sortedness tracking can rely on it.
  std::vector<int> sort_columns = spec.partition_columns;
  sort_columns.push_back(spec.order_column);
  Relation sorted = SortBy(input, sort_columns);

  std::vector<ColumnDef> defs = sorted.schema().columns();
  defs.emplace_back(spec.output_name);
  Relation output{Schema(std::move(defs))};
  const int64_t rows = sorted.NumRows();
  output.Resize(rows);
  for (int c = 0; c < sorted.NumColumns(); ++c) {
    const auto src = sorted.ColumnSpan(c);
    std::copy(src.begin(), src.end(), output.ColumnData(c));
  }

  // The running-state scan is inherently sequential over rows, but reads only the
  // partition/value columns — all contiguous.
  const auto partition_cols = ColumnPtrs(sorted, spec.partition_columns);
  const int64_t* const values =
      (rows == 0 || spec.fn == WindowFn::kRowNumber)
          ? nullptr
          : sorted.ColumnSpan(spec.value_column).data();
  int64_t* const computed = output.ColumnData(sorted.NumColumns());
  int64_t row_number = 0;
  int64_t running_sum = 0;
  int64_t prev_value = 0;
  for (int64_t r = 0; r < rows; ++r) {
    const bool new_partition =
        r == 0 || CompareRowsAt(partition_cols, r - 1, r) != 0;
    if (new_partition) {
      row_number = 0;
      running_sum = 0;
      prev_value = 0;
    }
    row_number += 1;
    switch (spec.fn) {
      case WindowFn::kRowNumber:
        computed[r] = row_number;
        break;
      case WindowFn::kLag:
        computed[r] = prev_value;
        prev_value = values[r];
        break;
      case WindowFn::kRunningSum:
        running_sum = cpu::AddWrap(running_sum, values[r]);
        computed[r] = running_sum;
        break;
    }
  }
  return output;
}

bool IsSortedBy(const Relation& input, std::span<const int> columns) {
  const auto cols = ColumnPtrs(input, columns);
  for (int64_t r = 1; r < input.NumRows(); ++r) {
    if (CompareRowsAt(cols, r - 1, r) > 0) {
      return false;
    }
  }
  return true;
}

Relation PadToPowerOfTwo(const Relation& input, int64_t sentinel_stream) {
  const int64_t rows = input.NumRows();
  const int64_t target = PaddedRowCount(rows);
  Relation output = input;
  output.Resize(target);
  // Unique sentinel per cell: base + stream * 2^32 + counter. Streams separate pad
  // sites (parties/branches); the counter separates cells within a site. The
  // counter walks pad cells in row-major order (row by row, then column) so the
  // sentinel values are identical to the historical AppendRow loop.
  const int cols = input.NumColumns();
  const int64_t base = kSentinelBase + sentinel_stream * (int64_t{1} << 32);
  for (int c = 0; c < cols; ++c) {
    int64_t* const out = output.ColumnData(c);
    for (int64_t r = rows; r < target; ++r) {
      out[r] = base + (r - rows) * cols + c;
    }
  }
  return output;
}

Relation StripSentinelRows(const Relation& input) {
  const int64_t rows = input.NumRows();
  // Column-parallel sentinel detection: a row is padded iff any of its cells is in
  // the sentinel range.
  // With no columns there is nothing to test; every row stays (mask init 1).
  std::vector<uint8_t> keep(static_cast<size_t>(rows), 1);
  for (int c = 0; c < input.NumColumns(); ++c) {
    const int64_t* const column = rows == 0 ? nullptr : input.ColumnSpan(c).data();
    // First column sets the mask, later columns intersect: keep = all cells
    // below the sentinel range.
    const cpu::MaskMode mode = c == 0 ? cpu::MaskMode::kSet : cpu::MaskMode::kAnd;
    ParallelFor(0, rows, [&](int64_t lo, int64_t hi) {
      cpu::CompareMask(cpu::Cmp::kLt, column + lo, nullptr, kSentinelBase,
                       static_cast<size_t>(hi - lo), mode, keep.data() + lo);
    });
  }
  std::vector<int64_t> kept(static_cast<size_t>(rows));
  kept.resize(cpu::MaskToIndices(keep.data(), static_cast<size_t>(rows), 0,
                                 kept.data()));
  return GatherRows(input, kept);
}

}  // namespace ops
}  // namespace conclave
