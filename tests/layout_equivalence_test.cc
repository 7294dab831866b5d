// Layout-equivalence suite for the columnar data plane: every operator in ops.h,
// run on randomized relations (including 0-row, 1-row, 1-column, and wide
// schemas), must produce output identical to the retained row-major reference
// implementation (tests/row_major_reference.h). Identical means RowsEqual — same
// schema names, same cells, same row order — not merely unordered-equal: the
// columnar kernels are a storage swap, and every ordering guarantee of the old
// code (filter scan order, join probe order, sorted aggregate keys, stable
// sorts) must survive it.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "conclave/common/rng.h"
#include "conclave/relational/ops.h"
#include "row_major_reference.h"

namespace conclave {
namespace {

using rowmajor::RowMajorRelation;

// A relation shape the whole suite sweeps: rows x columns with values in
// [-range, range] (small ranges force key collisions in joins/aggregates).
struct Shape {
  int64_t rows;
  int cols;
  int64_t range;
};

const Shape kShapes[] = {
    {0, 2, 5},     // Empty relation, multi-column.
    {0, 1, 5},     // Empty relation, single column.
    {1, 1, 3},     // Single cell.
    {1, 4, 3},     // Single row, several columns.
    {7, 1, 2},     // Single column, heavy duplicates.
    {57, 3, 6},    // Small odd size (not a grain multiple).
    {200, 2, 8},   // Mid-size, duplicate-rich keys.
    {123, 12, 50}, // Wide schema.
};

Relation RandomRelation(const Shape& shape, uint64_t seed) {
  std::vector<ColumnDef> defs;
  for (int c = 0; c < shape.cols; ++c) {
    defs.emplace_back("c" + std::to_string(c));
  }
  Relation rel{Schema(std::move(defs))};
  rel.Resize(shape.rows);
  Rng rng(seed);
  for (int c = 0; c < shape.cols; ++c) {
    int64_t* const out = rel.ColumnData(c);
    for (int64_t r = 0; r < shape.rows; ++r) {
      out[r] = rng.NextInRange(-shape.range, shape.range);
    }
  }
  return rel;
}

// One group and one partition of INT64-extreme values: c0 (INT64_MIN) and c1 (0)
// are constant keys, and c2 holds INT64_MIN, INT64_MAX, -1 and 0, so sums, running
// sums, products and INT64_MIN / -1 wrap as the MPC ring does.
Relation ExtremeRelation() {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Relation rel{Schema::Of({"c0", "c1", "c2"})};
  for (int64_t value : {kMin, kMin, kMax, kMax, int64_t{-1}, int64_t{0}}) {
    rel.AppendRow({kMin, 0, value});
  }
  return rel;
}

// The sweep's random relations for `seed`, then the extreme relation.
std::vector<Relation> SweepRelations(uint64_t seed) {
  std::vector<Relation> rels;
  for (const Shape& shape : kShapes) {
    rels.push_back(RandomRelation(shape, seed));
  }
  rels.push_back(ExtremeRelation());
  return rels;
}

// Exact equality against the reference, with a readable failure dump.
void ExpectSame(const Relation& columnar, const RowMajorRelation& reference,
                const char* op) {
  const Relation expected = reference.ToColumnar();
  EXPECT_TRUE(columnar.RowsEqual(expected))
      << op << " diverged from the row-major reference\nexpected\n"
      << expected.ToString() << "\ngot\n"
      << columnar.ToString();
}

class LayoutEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LayoutEquivalenceTest, Project) {
  const uint64_t seed = GetParam();
  for (const Shape& shape : kShapes) {
    const Relation rel = RandomRelation(shape, seed);
    const RowMajorRelation ref_rel = RowMajorRelation::FromColumnar(rel);
    Rng rng(seed * 977 + static_cast<uint64_t>(shape.rows));
    // Random reordering projection, plus a duplicate-free prefix.
    std::vector<int> columns;
    for (int c = 0; c < shape.cols; ++c) {
      columns.push_back(c);
    }
    std::shuffle(columns.begin(), columns.end(), rng);
    columns.resize(1 + rng.NextBelow(static_cast<uint64_t>(shape.cols)));
    ExpectSame(ops::Project(rel, columns), rowmajor::ref::Project(ref_rel, columns),
               "Project");
  }
}

TEST_P(LayoutEquivalenceTest, FilterAllOpsAndBothRhsForms) {
  const uint64_t seed = GetParam();
  for (const Shape& shape : kShapes) {
    const Relation rel = RandomRelation(shape, seed + 1);
    const RowMajorRelation ref_rel = RowMajorRelation::FromColumnar(rel);
    Rng rng(seed * 31 + static_cast<uint64_t>(shape.cols));
    for (int op = 0; op < 6; ++op) {
      FilterPredicate literal = FilterPredicate::ColumnVsLiteral(
          static_cast<int>(rng.NextBelow(static_cast<uint64_t>(shape.cols))),
          static_cast<CompareOp>(op), rng.NextInRange(-shape.range, shape.range));
      ExpectSame(ops::Filter(rel, literal), rowmajor::ref::Filter(ref_rel, literal),
                 "Filter(literal)");
      FilterPredicate column = FilterPredicate::ColumnVsColumn(
          static_cast<int>(rng.NextBelow(static_cast<uint64_t>(shape.cols))),
          static_cast<CompareOp>(op),
          static_cast<int>(rng.NextBelow(static_cast<uint64_t>(shape.cols))));
      ExpectSame(ops::Filter(rel, column), rowmajor::ref::Filter(ref_rel, column),
                 "Filter(column)");
    }
  }
}

TEST_P(LayoutEquivalenceTest, JoinSingleAndMultiKey) {
  const uint64_t seed = GetParam();
  for (const Shape& shape : kShapes) {
    const Relation left = RandomRelation(shape, seed + 2);
    const Relation right = RandomRelation(shape, seed + 3);
    const RowMajorRelation ref_left = RowMajorRelation::FromColumnar(left);
    const RowMajorRelation ref_right = RowMajorRelation::FromColumnar(right);
    // Single key: exercises the int64 fast path.
    const int single[] = {0};
    ExpectSame(ops::Join(left, right, single, single),
               rowmajor::ref::Join(ref_left, ref_right, single, single),
               "Join(single key)");
    if (shape.cols >= 2) {
      // Multi-key: generic vector-key path.
      const int multi_l[] = {0, 1};
      const int multi_r[] = {1, 0};
      ExpectSame(ops::Join(left, right, multi_l, multi_r),
                 rowmajor::ref::Join(ref_left, ref_right, multi_l, multi_r),
                 "Join(multi key)");
    }
  }
}

TEST_P(LayoutEquivalenceTest, AggregateAllKindsAndKeyArities) {
  const uint64_t seed = GetParam();
  for (const Relation& rel : SweepRelations(seed + 4)) {
    const RowMajorRelation ref_rel = RowMajorRelation::FromColumnar(rel);
    const int agg_col = rel.NumColumns() - 1;
    for (int kind = 0; kind < 5; ++kind) {
      const auto agg = static_cast<AggKind>(kind);
      // Single group column (fast path).
      const int one[] = {0};
      ExpectSame(ops::Aggregate(rel, one, agg, agg_col, "out"),
                 rowmajor::ref::Aggregate(ref_rel, one, agg, agg_col, "out"),
                 "Aggregate(1 key)");
      // Global aggregate (empty key) and two-column keys (generic path).
      ExpectSame(ops::Aggregate(rel, {}, agg, agg_col, "out"),
                 rowmajor::ref::Aggregate(ref_rel, {}, agg, agg_col, "out"),
                 "Aggregate(0 keys)");
      if (rel.NumColumns() >= 2) {
        const int two[] = {1, 0};
        ExpectSame(ops::Aggregate(rel, two, agg, agg_col, "out"),
                   rowmajor::ref::Aggregate(ref_rel, two, agg, agg_col, "out"),
                   "Aggregate(2 keys)");
      }
    }
  }
}

TEST_P(LayoutEquivalenceTest, ConcatManyInputs) {
  const uint64_t seed = GetParam();
  for (const Shape& shape : kShapes) {
    std::vector<Relation> rels;
    std::vector<RowMajorRelation> ref_store;
    std::vector<const RowMajorRelation*> refs;
    for (uint64_t i = 0; i < 4; ++i) {
      Shape sized = shape;
      sized.rows = (shape.rows * (i + 1)) / 3;  // Mixed sizes, including 0.
      rels.push_back(RandomRelation(sized, seed + 10 + i));
      ref_store.push_back(RowMajorRelation::FromColumnar(rels.back()));
    }
    for (const auto& ref : ref_store) {
      refs.push_back(&ref);
    }
    ExpectSame(ops::Concat(std::span<const Relation>(rels)),
               rowmajor::ref::Concat(refs), "Concat");
  }
}

TEST_P(LayoutEquivalenceTest, SortByStableBothDirections) {
  const uint64_t seed = GetParam();
  for (const Shape& shape : kShapes) {
    const Relation rel = RandomRelation(shape, seed + 5);
    const RowMajorRelation ref_rel = RowMajorRelation::FromColumnar(rel);
    const int keys[] = {0};  // Heavy ties: stability is observable.
    for (const bool ascending : {true, false}) {
      ExpectSame(ops::SortBy(rel, keys, ascending),
                 rowmajor::ref::SortBy(ref_rel, keys, ascending), "SortBy");
      EXPECT_EQ(ops::IsSortedBy(ops::SortBy(rel, keys, ascending), keys),
                rowmajor::ref::IsSortedBy(
                    rowmajor::ref::SortBy(ref_rel, keys, ascending), keys));
    }
  }
}

TEST_P(LayoutEquivalenceTest, DistinctAndLimit) {
  const uint64_t seed = GetParam();
  for (const Shape& shape : kShapes) {
    const Relation rel = RandomRelation(shape, seed + 6);
    const RowMajorRelation ref_rel = RowMajorRelation::FromColumnar(rel);
    const int cols[] = {0};
    ExpectSame(ops::Distinct(rel, cols), rowmajor::ref::Distinct(ref_rel, cols),
               "Distinct");
    for (const int64_t count : {int64_t{0}, int64_t{1}, shape.rows / 2,
                                shape.rows + 5}) {
      ExpectSame(ops::Limit(rel, count), rowmajor::ref::Limit(ref_rel, count),
                 "Limit");
    }
  }
}

TEST_P(LayoutEquivalenceTest, ArithmeticAllKinds) {
  const uint64_t seed = GetParam();
  for (const Relation& rel : SweepRelations(seed + 7)) {
    const RowMajorRelation ref_rel = RowMajorRelation::FromColumnar(rel);
    for (int kind = 0; kind < 4; ++kind) {
      ArithSpec spec;
      spec.kind = static_cast<ArithKind>(kind);
      spec.lhs_column = 0;
      spec.result_name = "r";
      // Division runs scaled and unscaled (the latter divides INT64_MIN by -1 on
      // the extreme relation).
      for (int64_t scale : {int64_t{100}, int64_t{1}}) {
        spec.scale = spec.kind == ArithKind::kDiv ? scale : 1;
        spec.rhs_is_column = false;
        spec.rhs_literal = 3;
        ExpectSame(ops::Arithmetic(rel, spec), rowmajor::ref::Arithmetic(ref_rel, spec),
                   "Arithmetic(literal)");
        spec.rhs_is_column = true;
        spec.rhs_column = rel.NumColumns() - 1;
        ExpectSame(ops::Arithmetic(rel, spec), rowmajor::ref::Arithmetic(ref_rel, spec),
                   "Arithmetic(column)");
      }
    }
  }
}

TEST_P(LayoutEquivalenceTest, WindowPadStrip) {
  const uint64_t seed = GetParam();
  for (const Relation& rel : SweepRelations(seed + 8)) {
    const RowMajorRelation ref_rel = RowMajorRelation::FromColumnar(rel);

    WindowSpec spec;
    spec.partition_columns = {0};
    spec.order_column = rel.NumColumns() - 1;
    spec.output_name = "w";
    for (const WindowFn fn :
         {WindowFn::kRowNumber, WindowFn::kLag, WindowFn::kRunningSum}) {
      spec.fn = fn;
      spec.value_column = rel.NumColumns() - 1;
      ExpectSame(ops::Window(rel, spec), rowmajor::ref::Window(ref_rel, spec),
                 "Window");
    }

    const Relation padded = ops::PadToPowerOfTwo(rel, /*sentinel_stream=*/3);
    ExpectSame(padded, rowmajor::ref::PadToPowerOfTwo(ref_rel, 3), "PadToPowerOfTwo");
    ExpectSame(ops::StripSentinelRows(padded),
               rowmajor::ref::StripSentinelRows(
                   RowMajorRelation::FromColumnar(padded)),
               "StripSentinelRows");
  }
}

TEST_P(LayoutEquivalenceTest, GatherRowsMatchesRowLoop) {
  const uint64_t seed = GetParam();
  for (const Shape& shape : kShapes) {
    const Relation rel = RandomRelation(shape, seed + 9);
    Rng rng(seed + 99);
    std::vector<int64_t> rows;
    if (shape.rows > 0) {
      for (int i = 0; i < 40; ++i) {
        rows.push_back(static_cast<int64_t>(
            rng.NextBelow(static_cast<uint64_t>(shape.rows))));
      }
    }
    const Relation gathered = ops::GatherRows(rel, rows);
    ASSERT_EQ(gathered.NumRows(), static_cast<int64_t>(rows.size()));
    for (size_t i = 0; i < rows.size(); ++i) {
      for (int c = 0; c < shape.cols; ++c) {
        ASSERT_EQ(gathered.At(static_cast<int64_t>(i), c), rel.At(rows[i], c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 42, 1234));

}  // namespace
}  // namespace conclave
