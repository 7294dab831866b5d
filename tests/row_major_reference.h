// Row-major reference implementation of the relational layer, retained from the
// pre-columnar data plane (PR 1-3). The layout-equivalence suite and the random
// query corpus run every operator through BOTH implementations and require
// identical results: the columnar kernels in relational/ops.cc must be a pure
// layout change, never a semantic one.
//
// Everything here is intentionally the old code shape: one flat row-major cell
// vector, serial row-at-a-time loops, no thread pool.
#ifndef CONCLAVE_TESTS_ROW_MAJOR_REFERENCE_H_
#define CONCLAVE_TESTS_ROW_MAJOR_REFERENCE_H_

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "conclave/common/status.h"
#include "conclave/ir/op.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"

namespace conclave {
namespace rowmajor {

// The pre-PR-4 Relation: schema plus one row-major flat cell vector.
class RowMajorRelation {
 public:
  RowMajorRelation() = default;
  explicit RowMajorRelation(Schema schema) : schema_(std::move(schema)) {}
  RowMajorRelation(Schema schema, std::vector<int64_t> cells)
      : schema_(std::move(schema)), cells_(std::move(cells)) {}

  static RowMajorRelation FromColumnar(const Relation& rel) {
    return RowMajorRelation(rel.schema(), rel.RowMajorCells());
  }
  Relation ToColumnar() const { return Relation(schema_, cells_); }

  const Schema& schema() const { return schema_; }
  int64_t NumRows() const {
    const int cols = schema_.NumColumns();
    return cols == 0 ? 0 : static_cast<int64_t>(cells_.size()) / cols;
  }
  int NumColumns() const { return schema_.NumColumns(); }

  int64_t At(int64_t row, int col) const {
    return cells_[static_cast<size_t>(row) * NumColumns() + col];
  }
  std::span<const int64_t> Row(int64_t row) const {
    return {cells_.data() + static_cast<size_t>(row) * NumColumns(),
            static_cast<size_t>(NumColumns())};
  }
  void AppendRow(std::span<const int64_t> values) {
    cells_.insert(cells_.end(), values.begin(), values.end());
  }
  void AppendRow(std::initializer_list<int64_t> values) {
    AppendRow(std::span<const int64_t>(values.begin(), values.size()));
  }
  const std::vector<int64_t>& cells() const { return cells_; }
  std::vector<int64_t>& mutable_cells() { return cells_; }

 private:
  Schema schema_;
  std::vector<int64_t> cells_;
};

namespace ref {

// Two's complement arithmetic mod 2^64, the MPC ring's (signed overflow is
// undefined in C++, so every sum and product goes through uint64_t).
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}
inline int64_t WrapNegate(int64_t a) {
  return static_cast<int64_t>(~static_cast<uint64_t>(a) + 1);
}

inline std::vector<int64_t> ExtractKey(const RowMajorRelation& rel, int64_t row,
                                       std::span<const int> columns) {
  std::vector<int64_t> key;
  key.reserve(columns.size());
  for (int c : columns) {
    key.push_back(rel.At(row, c));
  }
  return key;
}

inline int CompareRows(const RowMajorRelation& rel, int64_t row_a, int64_t row_b,
                       std::span<const int> columns) {
  for (int c : columns) {
    const int64_t a = rel.At(row_a, c);
    const int64_t b = rel.At(row_b, c);
    if (a < b) {
      return -1;
    }
    if (a > b) {
      return 1;
    }
  }
  return 0;
}

struct KeyHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int64_t v : key) {
      uint64_t z = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL + h;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h = z ^ (z >> 31);
    }
    return static_cast<size_t>(h);
  }
};

inline RowMajorRelation Project(const RowMajorRelation& input,
                                std::span<const int> columns) {
  std::vector<ColumnDef> defs;
  defs.reserve(columns.size());
  for (int c : columns) {
    defs.push_back(input.schema().Column(c));
  }
  RowMajorRelation output{Schema(std::move(defs))};
  auto& cells = output.mutable_cells();
  for (int64_t r = 0; r < input.NumRows(); ++r) {
    for (int c : columns) {
      cells.push_back(input.At(r, c));
    }
  }
  return output;
}

inline RowMajorRelation Filter(const RowMajorRelation& input,
                               const FilterPredicate& predicate) {
  RowMajorRelation output{input.schema()};
  auto& cells = output.mutable_cells();
  for (int64_t r = 0; r < input.NumRows(); ++r) {
    const int64_t lhs = input.At(r, predicate.column);
    const int64_t rhs = predicate.rhs_is_column ? input.At(r, predicate.rhs_column)
                                                : predicate.rhs_literal;
    if (EvalCompare(predicate.op, lhs, rhs)) {
      auto row = input.Row(r);
      cells.insert(cells.end(), row.begin(), row.end());
    }
  }
  return output;
}

inline RowMajorRelation Join(const RowMajorRelation& left,
                             const RowMajorRelation& right,
                             std::span<const int> left_keys,
                             std::span<const int> right_keys) {
  std::vector<int> left_rest;
  std::vector<int> right_rest;
  RowMajorRelation output{ops::JoinOutputSchema(left.schema(), right.schema(),
                                                left_keys, right_keys, &left_rest,
                                                &right_rest)};
  std::unordered_map<std::vector<int64_t>, std::vector<int64_t>, KeyHash> index;
  for (int64_t r = 0; r < right.NumRows(); ++r) {
    index[ExtractKey(right, r, right_keys)].push_back(r);
  }
  auto& cells = output.mutable_cells();
  for (int64_t lr = 0; lr < left.NumRows(); ++lr) {
    const auto it = index.find(ExtractKey(left, lr, left_keys));
    if (it == index.end()) {
      continue;
    }
    for (int64_t rr : it->second) {
      for (int c : left_keys) {
        cells.push_back(left.At(lr, c));
      }
      for (int c : left_rest) {
        cells.push_back(left.At(lr, c));
      }
      for (int c : right_rest) {
        cells.push_back(right.At(rr, c));
      }
    }
  }
  return output;
}

inline RowMajorRelation Aggregate(const RowMajorRelation& input,
                                  std::span<const int> group_columns, AggKind kind,
                                  int agg_column, const std::string& output_name) {
  struct Accumulator {
    int64_t sum = 0;
    int64_t count = 0;
    int64_t min = std::numeric_limits<int64_t>::max();
    int64_t max = std::numeric_limits<int64_t>::min();
  };
  std::unordered_map<std::vector<int64_t>, Accumulator, KeyHash> groups;
  for (int64_t r = 0; r < input.NumRows(); ++r) {
    auto& acc = groups[ExtractKey(input, r, group_columns)];
    acc.count += 1;
    if (kind != AggKind::kCount) {
      const int64_t v = input.At(r, agg_column);
      acc.sum = WrapAdd(acc.sum, v);
      acc.min = std::min(acc.min, v);
      acc.max = std::max(acc.max, v);
    }
  }
  std::vector<ColumnDef> defs;
  for (int c : group_columns) {
    defs.push_back(input.schema().Column(c));
  }
  defs.emplace_back(output_name);
  RowMajorRelation output{Schema(std::move(defs))};

  std::vector<const std::pair<const std::vector<int64_t>, Accumulator>*> entries;
  entries.reserve(groups.size());
  for (const auto& entry : groups) {
    entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  auto& cells = output.mutable_cells();
  for (const auto* entry : entries) {
    cells.insert(cells.end(), entry->first.begin(), entry->first.end());
    const Accumulator& acc = entry->second;
    switch (kind) {
      case AggKind::kSum:
        cells.push_back(acc.sum);
        break;
      case AggKind::kCount:
        cells.push_back(acc.count);
        break;
      case AggKind::kMin:
        cells.push_back(acc.min);
        break;
      case AggKind::kMax:
        cells.push_back(acc.max);
        break;
      case AggKind::kMean:
        cells.push_back(acc.count == 0 ? 0 : acc.sum / acc.count);
        break;
    }
  }
  return output;
}

inline RowMajorRelation Concat(std::span<const RowMajorRelation* const> inputs) {
  RowMajorRelation output{inputs[0]->schema()};
  auto& cells = output.mutable_cells();
  for (const RowMajorRelation* rel : inputs) {
    cells.insert(cells.end(), rel->cells().begin(), rel->cells().end());
  }
  return output;
}

inline RowMajorRelation SortBy(const RowMajorRelation& input,
                               std::span<const int> columns, bool ascending = true) {
  std::vector<int64_t> order(static_cast<size_t>(input.NumRows()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const int cmp = CompareRows(input, a, b, columns);
    return ascending ? cmp < 0 : cmp > 0;
  });
  RowMajorRelation output{input.schema()};
  auto& cells = output.mutable_cells();
  for (int64_t r : order) {
    auto row = input.Row(r);
    cells.insert(cells.end(), row.begin(), row.end());
  }
  return output;
}

inline RowMajorRelation Distinct(const RowMajorRelation& input,
                                 std::span<const int> columns) {
  RowMajorRelation projected = Project(input, columns);
  std::vector<std::vector<int64_t>> rows;
  for (int64_t r = 0; r < projected.NumRows(); ++r) {
    auto row = projected.Row(r);
    rows.emplace_back(row.begin(), row.end());
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  RowMajorRelation output{projected.schema()};
  for (const auto& row : rows) {
    output.AppendRow(row);
  }
  return output;
}

inline RowMajorRelation Limit(const RowMajorRelation& input, int64_t count) {
  RowMajorRelation output{input.schema()};
  const int64_t rows = std::min(count, input.NumRows());
  auto& cells = output.mutable_cells();
  cells.insert(cells.end(), input.cells().begin(),
               input.cells().begin() + rows * input.NumColumns());
  return output;
}

inline RowMajorRelation Arithmetic(const RowMajorRelation& input,
                                   const ArithSpec& spec) {
  std::vector<ColumnDef> defs = input.schema().columns();
  defs.emplace_back(spec.result_name);
  RowMajorRelation output{Schema(std::move(defs))};
  auto& cells = output.mutable_cells();
  for (int64_t r = 0; r < input.NumRows(); ++r) {
    auto row = input.Row(r);
    cells.insert(cells.end(), row.begin(), row.end());
    const int64_t lhs = input.At(r, spec.lhs_column);
    const int64_t rhs =
        spec.rhs_is_column ? input.At(r, spec.rhs_column) : spec.rhs_literal;
    int64_t result = 0;
    switch (spec.kind) {
      case ArithKind::kAdd:
        result = WrapAdd(lhs, rhs);
        break;
      case ArithKind::kSub:
        result = WrapAdd(lhs, WrapNegate(rhs));
        break;
      case ArithKind::kMul:
        result = WrapMul(lhs, rhs);
        break;
      case ArithKind::kDiv: {
        // Division by zero is 0; the scaled numerator wraps, and dividing it by
        // -1 negates it in the ring (INT64_MIN / -1 == INT64_MIN).
        const int64_t scaled = WrapMul(lhs, spec.scale);
        result = rhs == 0 ? 0 : rhs == -1 ? WrapNegate(scaled) : scaled / rhs;
        break;
      }
    }
    cells.push_back(result);
  }
  return output;
}

inline RowMajorRelation Window(const RowMajorRelation& input,
                               const WindowSpec& spec) {
  std::vector<int> sort_columns = spec.partition_columns;
  sort_columns.push_back(spec.order_column);
  RowMajorRelation sorted = SortBy(input, sort_columns);

  std::vector<ColumnDef> defs = sorted.schema().columns();
  defs.emplace_back(spec.output_name);
  RowMajorRelation output{Schema(std::move(defs))};
  auto& cells = output.mutable_cells();
  int64_t row_number = 0;
  int64_t running_sum = 0;
  int64_t prev_value = 0;
  for (int64_t r = 0; r < sorted.NumRows(); ++r) {
    const bool new_partition =
        r == 0 || CompareRows(sorted, r - 1, r, spec.partition_columns) != 0;
    if (new_partition) {
      row_number = 0;
      running_sum = 0;
      prev_value = 0;
    }
    row_number += 1;
    int64_t computed = 0;
    switch (spec.fn) {
      case WindowFn::kRowNumber:
        computed = row_number;
        break;
      case WindowFn::kLag:
        computed = prev_value;
        prev_value = sorted.At(r, spec.value_column);
        break;
      case WindowFn::kRunningSum:
        running_sum = WrapAdd(running_sum, sorted.At(r, spec.value_column));
        computed = running_sum;
        break;
    }
    auto row = sorted.Row(r);
    cells.insert(cells.end(), row.begin(), row.end());
    cells.push_back(computed);
  }
  return output;
}

inline bool IsSortedBy(const RowMajorRelation& input, std::span<const int> columns) {
  for (int64_t r = 1; r < input.NumRows(); ++r) {
    if (CompareRows(input, r - 1, r, columns) > 0) {
      return false;
    }
  }
  return true;
}

inline RowMajorRelation PadToPowerOfTwo(const RowMajorRelation& input,
                                        int64_t sentinel_stream) {
  const int64_t target = ops::PaddedRowCount(input.NumRows());
  RowMajorRelation output = input;
  int64_t counter = 0;
  for (int64_t r = input.NumRows(); r < target; ++r) {
    std::vector<int64_t> row(static_cast<size_t>(input.NumColumns()));
    for (auto& cell : row) {
      cell = ops::kSentinelBase + sentinel_stream * (int64_t{1} << 32) + counter++;
    }
    output.AppendRow(row);
  }
  return output;
}

inline RowMajorRelation StripSentinelRows(const RowMajorRelation& input) {
  RowMajorRelation output{input.schema()};
  auto& cells = output.mutable_cells();
  for (int64_t r = 0; r < input.NumRows(); ++r) {
    auto row = input.Row(r);
    const bool padded =
        std::any_of(row.begin(), row.end(),
                    [](int64_t cell) { return cell >= ops::kSentinelBase; });
    if (!padded) {
      cells.insert(cells.end(), row.begin(), row.end());
    }
  }
  return output;
}

// Row-major mirror of backends::ExecuteLocal: resolves the node's column names
// against the input schemas and dispatches to the reference operators above.
inline StatusOr<RowMajorRelation> ExecuteLocal(
    const ir::OpNode& node, const std::vector<const RowMajorRelation*>& inputs) {
  switch (node.kind) {
    case ir::OpKind::kCreate:
      return InternalError("create nodes materialize from provided inputs");
    case ir::OpKind::kConcat: {
      RowMajorRelation merged =
          Concat(std::span<const RowMajorRelation* const>(inputs));
      const auto& params = node.Params<ir::ConcatParams>();
      if (!params.merge_columns.empty()) {
        CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> columns,
                                  merged.schema().IndicesOf(params.merge_columns));
        merged = SortBy(merged, columns);
      }
      return merged;
    }
    case ir::OpKind::kProject: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          inputs[0]->schema().IndicesOf(node.Params<ir::ProjectParams>().columns));
      return Project(*inputs[0], columns);
    }
    case ir::OpKind::kFilter: {
      const auto& params = node.Params<ir::FilterParams>();
      FilterPredicate predicate;
      CONCLAVE_ASSIGN_OR_RETURN(predicate.column,
                                inputs[0]->schema().IndexOf(params.column));
      predicate.op = params.op;
      predicate.rhs_is_column = params.rhs_is_column;
      if (params.rhs_is_column) {
        CONCLAVE_ASSIGN_OR_RETURN(predicate.rhs_column,
                                  inputs[0]->schema().IndexOf(params.rhs_column));
      } else {
        predicate.rhs_literal = params.literal;
      }
      return Filter(*inputs[0], predicate);
    }
    case ir::OpKind::kJoin: {
      const auto& params = node.Params<ir::JoinParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> lk,
                                inputs[0]->schema().IndicesOf(params.left_keys));
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> rk,
                                inputs[1]->schema().IndicesOf(params.right_keys));
      return Join(*inputs[0], *inputs[1], lk, rk);
    }
    case ir::OpKind::kAggregate: {
      const auto& params = node.Params<ir::AggregateParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> group,
                                inputs[0]->schema().IndicesOf(params.group_columns));
      int agg_column = 0;
      if (params.kind != AggKind::kCount) {
        CONCLAVE_ASSIGN_OR_RETURN(agg_column,
                                  inputs[0]->schema().IndexOf(params.agg_column));
      }
      return Aggregate(*inputs[0], group, params.kind, agg_column,
                       params.output_name);
    }
    case ir::OpKind::kArithmetic: {
      const auto& params = node.Params<ir::ArithmeticParams>();
      ArithSpec spec;
      spec.kind = params.kind;
      CONCLAVE_ASSIGN_OR_RETURN(spec.lhs_column,
                                inputs[0]->schema().IndexOf(params.lhs_column));
      spec.rhs_is_column = params.rhs_is_column;
      if (params.rhs_is_column) {
        CONCLAVE_ASSIGN_OR_RETURN(spec.rhs_column,
                                  inputs[0]->schema().IndexOf(params.rhs_column));
      } else {
        spec.rhs_literal = params.literal;
      }
      spec.result_name = params.output_name;
      spec.scale = params.scale;
      return Arithmetic(*inputs[0], spec);
    }
    case ir::OpKind::kWindow: {
      const auto& params = node.Params<ir::WindowParams>();
      WindowSpec spec;
      CONCLAVE_ASSIGN_OR_RETURN(
          spec.partition_columns,
          inputs[0]->schema().IndicesOf(params.partition_columns));
      CONCLAVE_ASSIGN_OR_RETURN(spec.order_column,
                                inputs[0]->schema().IndexOf(params.order_column));
      spec.fn = params.fn;
      if (params.fn != WindowFn::kRowNumber) {
        CONCLAVE_ASSIGN_OR_RETURN(spec.value_column,
                                  inputs[0]->schema().IndexOf(params.value_column));
      }
      spec.output_name = params.output_name;
      return Window(*inputs[0], spec);
    }
    case ir::OpKind::kSortBy: {
      const auto& params = node.Params<ir::SortByParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> columns,
                                inputs[0]->schema().IndicesOf(params.columns));
      return SortBy(*inputs[0], columns, params.ascending);
    }
    case ir::OpKind::kDistinct: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          inputs[0]->schema().IndicesOf(node.Params<ir::DistinctParams>().columns));
      return Distinct(*inputs[0], columns);
    }
    case ir::OpKind::kPad:
      return PadToPowerOfTwo(*inputs[0],
                             node.Params<ir::PadParams>().sentinel_stream);
    case ir::OpKind::kLimit:
      return Limit(*inputs[0], node.Params<ir::LimitParams>().count);
    case ir::OpKind::kCollect:
      return *inputs[0];
  }
  return InternalError("unhandled op kind in row-major reference execution");
}

}  // namespace ref
}  // namespace rowmajor
}  // namespace conclave

#endif  // CONCLAVE_TESTS_ROW_MAJOR_REFERENCE_H_
