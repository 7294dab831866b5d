// Cleartext relational operator library.
//
// These functions define the *semantics* of every Conclave operator. They serve three
// roles: (1) the execution engine behind the Local/Spark cleartext backends, (2) the
// cleartext steps inside hybrid protocols (the STP's join-pair and sort work), and
// (3) the single-trusted-party reference that every secure execution is tested against.
//
// Column references are pre-resolved indices; the IR layer validates names against
// schemas and reports errors before execution reaches this layer, so out-of-range
// indices here are programmer errors (CHECKed).
#ifndef CONCLAVE_RELATIONAL_OPS_H_
#define CONCLAVE_RELATIONAL_OPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "conclave/relational/relation.h"

namespace conclave {

class HashIndex;

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);
bool EvalCompare(CompareOp op, int64_t lhs, int64_t rhs);

// Row predicate: column <op> (column | literal).
struct FilterPredicate {
  int column = 0;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_column = false;
  int rhs_column = 0;
  int64_t rhs_literal = 0;

  static FilterPredicate ColumnVsLiteral(int column, CompareOp op, int64_t literal) {
    FilterPredicate p;
    p.column = column;
    p.op = op;
    p.rhs_is_column = false;
    p.rhs_literal = literal;
    return p;
  }
  static FilterPredicate ColumnVsColumn(int column, CompareOp op, int rhs_column) {
    FilterPredicate p;
    p.column = column;
    p.op = op;
    p.rhs_is_column = true;
    p.rhs_column = rhs_column;
    return p;
  }
};

enum class AggKind { kSum, kCount, kMin, kMax, kMean };

const char* AggKindName(AggKind kind);

enum class ArithKind { kAdd, kSub, kMul, kDiv };

const char* ArithKindName(ArithKind kind);

// Window functions computed per partition, in `order_column` order (SQL's
// f(...) OVER (PARTITION BY p ORDER BY o)). These cover the SMCQL workload the paper
// could not run ("Conclave does not yet support window aggregates", §7.4): recurrent
// c.diff needs kLag on the diagnosis timestamp.
enum class WindowFn {
  kRowNumber,   // 1-based rank of the row within its partition.
  kLag,         // Previous row's `value_column` within the partition; 0 for the first.
  kRunningSum,  // Inclusive prefix sum of `value_column` within the partition.
};

const char* WindowFnName(WindowFn fn);

// Window specification. Ties in (partition, order) make kLag/kRunningSum ambiguous
// (as in SQL); results are deterministic only up to tie order, and the secure
// implementations may break ties differently than the stable cleartext sort.
struct WindowSpec {
  std::vector<int> partition_columns;
  int order_column = 0;
  WindowFn fn = WindowFn::kRowNumber;
  int value_column = 0;  // Ignored for kRowNumber.
  std::string output_name;
};

// Appends a new column `result_name` = lhs <kind> rhs, where rhs is a column or a
// literal. For kDiv, the numerator is first multiplied by `scale` (fixed-point style;
// scale=1 gives plain integer division; HHI-style share-of-total queries pass 10^4).
// Division by zero yields 0 (the paper's queries pre-filter zero denominators; we keep
// execution total rather than fault).
struct ArithSpec {
  ArithKind kind = ArithKind::kMul;
  int lhs_column = 0;
  bool rhs_is_column = false;
  int rhs_column = 0;
  int64_t rhs_literal = 0;
  std::string result_name;
  int64_t scale = 1;
};

namespace ops {

// Materializes the listed rows (in the given order, duplicates allowed) as a new
// relation: one contiguous-destination gather per column. The backbone of every
// selection-shaped kernel (filter, sort, distinct, sentinel strip) and of the
// cleartext sides of the hybrid protocols.
Relation GatherRows(const Relation& input, std::span<const int64_t> rows);

// Gathers one source column at the listed rows into a caller-owned destination
// buffer of rows.size() cells (morsel-parallel, disjoint writes). The per-column
// primitive behind GatherRows and the join-output assembly.
void GatherColumnInto(const Relation& src, int src_col,
                      std::span<const int64_t> rows, int64_t* dst);

// Keeps columns listed in `columns`, in that order (reordering projections allowed).
Relation Project(const Relation& input, std::span<const int> columns);

Relation Filter(const Relation& input, const FilterPredicate& predicate);

// Inner equi-join. Output schema: join keys (left names), then left non-key columns,
// then right non-key columns. Output rows are ordered by left row, then right row
// (stable); secure join implementations may permute rows and are compared unordered.
Relation Join(const Relation& left, const Relation& right,
              std::span<const int> left_keys, std::span<const int> right_keys);

// The matching (left row, right row) pairs of the inner equi-join, in exactly the
// order Join materializes rows: left-scan order, ascending right row within each
// match set. Every join finds its pairs here: Join is a gather over this pair
// stream, the spilling join (spill.h) consumes it per Grace bucket, and the secure
// joins run it on revealed keys.
void JoinRowPairs(const Relation& left, const Relation& right,
                  std::span<const int> left_keys, std::span<const int> right_keys,
                  std::vector<int64_t>* left_rows, std::vector<int64_t>* right_rows);
// The same pairs against an index built over the right side's key columns: the
// relation form above builds one and forwards here, and a Grace leaf probing
// several left batches against one build side builds it once.
void JoinRowPairs(const Relation& left, std::span<const int> left_keys,
                  const HashIndex& right_index, std::vector<int64_t>* left_rows,
                  std::vector<int64_t>* right_rows);

// Join's output over the given (left row, right row) pairs, in JoinOutputSchema
// layout: one contiguous gather per output column. Join and the spilling join
// assemble through it.
Relation GatherJoinRows(const Relation& left, const Relation& right,
                        std::span<const int> left_keys, std::span<const int> right_keys,
                        std::span<const int64_t> left_rows,
                        std::span<const int64_t> right_rows);

// Group-by aggregate. Output schema: group columns, then one aggregate column named
// `output_name`. For kCount, `agg_column` is ignored. Output rows are sorted by group
// key, making cleartext evaluation deterministic. An empty `group_columns` computes a
// single global aggregate row.
Relation Aggregate(const Relation& input, std::span<const int> group_columns,
                   AggKind kind, int agg_column, const std::string& output_name);

// Duplicate-preserving set union; all inputs must have matching column names.
Relation Concat(std::span<const Relation> inputs);
// Copy-free variant for the execution backends: concatenates the relations behind
// the pointers directly, instead of forcing callers to materialize a contiguous
// vector of relation copies first.
Relation Concat(std::span<const Relation* const> inputs);

// Stable sort by the given columns (lexicographic), ascending or descending.
Relation SortBy(const Relation& input, std::span<const int> columns,
                bool ascending = true);
// SortBy's row order alone: order[i] is the input row SortBy puts at position i.
std::vector<int64_t> SortedOrder(const Relation& input, std::span<const int> columns,
                                 bool ascending = true);

// Projects to `columns` and removes duplicate rows; output sorted for determinism.
Relation Distinct(const Relation& input, std::span<const int> columns);

Relation Limit(const Relation& input, int64_t count);

// Copies rows [begin, end) of `input` (0 <= begin <= end <= NumRows()).
Relation Slice(const Relation& input, int64_t begin, int64_t end);

Relation Arithmetic(const Relation& input, const ArithSpec& spec);

// Appends the window function column `spec.output_name`. The output is sorted by
// (partition columns, order column) — the order in which the window is evaluated —
// keeping all input columns.
Relation Window(const Relation& input, const WindowSpec& spec);

// True if rows are sorted (non-decreasing) lexicographically by `columns`.
bool IsSortedBy(const Relation& input, std::span<const int> columns);

// --- Adaptive padding (§9 extension) ----------------------------------------------------
// Sentinel cells occupy [kSentinelBase, ...), above the supported data domain; each
// pad row's cells are globally unique (keyed by `sentinel_stream` and a row counter),
// so pad rows never match a join key and never collide in a group-by.
inline constexpr int64_t kSentinelBase = int64_t{1} << 62;

// The padding pass's row-count policy: the next power of two >= rows (zero rows pad
// to one). This is THE definition — PadToPowerOfTwo executes it and the compiler's
// cardinality pass (compiler/cardinality.cc) and plan-cost estimates query it, so the
// planner can never disagree with the runtime about padded sizes.
inline int64_t PaddedRowCount(int64_t rows) {
  int64_t target = 1;
  while (target < rows) {
    if (target > (int64_t{1} << 61)) {
      return rows;  // No power of two fits in int64; never overflow-wrap.
    }
    target *= 2;
  }
  return target;
}

// Appends sentinel rows until the row count reaches PaddedRowCount(rows). Hides the
// exact cardinality behind its log2 bucket.
Relation PadToPowerOfTwo(const Relation& input, int64_t sentinel_stream);

// Drops every row containing a sentinel cell (the recipient-side inverse of padding).
Relation StripSentinelRows(const Relation& input);

// The output schema of Join (keys with left names, left non-keys, right non-keys).
// Optionally reports the non-key column indices of each side; secure join
// implementations share this logic so all backends agree on output layout.
Schema JoinOutputSchema(const Schema& left, const Schema& right,
                        std::span<const int> left_keys,
                        std::span<const int> right_keys,
                        std::vector<int>* left_rest = nullptr,
                        std::vector<int>* right_rest = nullptr);

}  // namespace ops
}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_OPS_H_
