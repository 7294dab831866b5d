// Unit and property tests for the cleartext relational layer: schemas, relations,
// the operator library (the semantic ground truth for every backend), and CSV I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "conclave/common/rng.h"
#include "conclave/relational/csv.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"

namespace conclave {
namespace {

Relation MakeRelation(std::initializer_list<std::string> names,
                      std::initializer_list<std::initializer_list<int64_t>> rows) {
  std::vector<ColumnDef> defs;
  for (const auto& name : names) {
    defs.emplace_back(name);
  }
  Relation rel{Schema(std::move(defs))};
  for (const auto& row : rows) {
    rel.AppendRow(row);
  }
  return rel;
}

TEST(SchemaTest, IndexOfFindsColumns) {
  Schema schema = Schema::Of({"a", "b", "c"});
  EXPECT_EQ(*schema.IndexOf("a"), 0);
  EXPECT_EQ(*schema.IndexOf("c"), 2);
  EXPECT_FALSE(schema.IndexOf("z").ok());
}

TEST(SchemaTest, IndicesOfResolvesInOrder) {
  Schema schema = Schema::Of({"a", "b", "c"});
  EXPECT_EQ(*schema.IndicesOf({"c", "a"}), (std::vector<int>{2, 0}));
  EXPECT_FALSE(schema.IndicesOf({"a", "nope"}).ok());
}

TEST(SchemaTest, NamesMatchIgnoresTrust) {
  Schema a({ColumnDef("x", PartySet::Of({0})), ColumnDef("y")});
  Schema b = Schema::Of({"x", "y"});
  EXPECT_TRUE(a.NamesMatch(b));
  EXPECT_FALSE(a.NamesMatch(Schema::Of({"x"})));
  EXPECT_FALSE(a.NamesMatch(Schema::Of({"x", "z"})));
}

TEST(SchemaTest, ToStringShowsTrust) {
  Schema schema({ColumnDef("ssn", PartySet::Of({0})), ColumnDef("zip")});
  EXPECT_EQ(schema.ToString(), "(ssn{0}, zip{})");
}

TEST(RelationTest, AppendAndAccess) {
  Relation rel = MakeRelation({"a", "b"}, {{1, 2}, {3, 4}});
  EXPECT_EQ(rel.NumRows(), 2);
  EXPECT_EQ(rel.NumColumns(), 2);
  EXPECT_EQ(rel.At(1, 0), 3);
  rel.Set(1, 0, 9);
  EXPECT_EQ(rel.At(1, 0), 9);
}

TEST(RelationTest, ColumnSpanIsZeroCopyView) {
  Relation rel = MakeRelation({"a", "b"}, {{1, 2}, {3, 4}, {5, 6}});
  const auto column = rel.ColumnSpan(1);
  EXPECT_EQ(std::vector<int64_t>(column.begin(), column.end()),
            (std::vector<int64_t>{2, 4, 6}));
  // The span aliases the storage: cell writes are visible through it.
  rel.Set(1, 1, 40);
  EXPECT_EQ(column[1], 40);
  EXPECT_EQ(rel.ColumnSpan(1).data(), column.data());
}

TEST(RelationTest, RowMajorCellsRoundTrip) {
  Relation rel = MakeRelation({"a", "b"}, {{1, 2}, {3, 4}, {5, 6}});
  const std::vector<int64_t> cells = rel.RowMajorCells();
  EXPECT_EQ(cells, (std::vector<int64_t>{1, 2, 3, 4, 5, 6}));
  Relation rebuilt{rel.schema(), cells};
  EXPECT_TRUE(rebuilt.RowsEqual(rel));
}

TEST(RelationTest, ResizeAndColumnDataBulkIngest) {
  Relation rel{Schema::Of({"a", "b"})};
  rel.Resize(3);
  EXPECT_EQ(rel.NumRows(), 3);
  EXPECT_EQ(rel.At(2, 1), 0);  // Grown cells are zero.
  int64_t* const a = rel.ColumnData(0);
  for (int64_t r = 0; r < 3; ++r) {
    a[r] = r + 1;
  }
  EXPECT_EQ(rel.At(2, 0), 3);
  rel.Resize(1);
  EXPECT_EQ(rel.NumRows(), 1);
  EXPECT_EQ(rel.At(0, 0), 1);
}

TEST(RelationTest, CopyRowInto) {
  Relation rel = MakeRelation({"a", "b", "c"}, {{1, 2, 3}, {4, 5, 6}});
  std::vector<int64_t> row(3);
  rel.CopyRowInto(1, row);
  EXPECT_EQ(row, (std::vector<int64_t>{4, 5, 6}));
}

TEST(RelationTest, UnorderedEqualIgnoresRowOrder) {
  Relation a = MakeRelation({"a"}, {{1}, {2}, {3}});
  Relation b = MakeRelation({"a"}, {{3}, {1}, {2}});
  Relation c = MakeRelation({"a"}, {{3}, {1}, {1}});
  EXPECT_TRUE(UnorderedEqual(a, b));
  EXPECT_FALSE(UnorderedEqual(a, c));
}

TEST(RelationTest, ByteSizeCountsCells) {
  Relation rel = MakeRelation({"a", "b"}, {{1, 2}, {3, 4}});
  EXPECT_EQ(rel.ByteSize(), 4 * sizeof(int64_t));
}

TEST(OpsTest, ProjectSelectsAndReorders) {
  Relation rel = MakeRelation({"a", "b", "c"}, {{1, 2, 3}, {4, 5, 6}});
  const int cols[] = {2, 0};
  Relation out = ops::Project(rel, cols);
  EXPECT_EQ(out.schema().ToString(), "(c{}, a{})");
  EXPECT_EQ(out.At(0, 0), 3);
  EXPECT_EQ(out.At(1, 1), 4);
}

TEST(OpsTest, FilterLiteral) {
  Relation rel = MakeRelation({"a", "b"}, {{1, 10}, {2, 20}, {3, 30}});
  Relation out =
      ops::Filter(rel, FilterPredicate::ColumnVsLiteral(0, CompareOp::kGt, 1));
  EXPECT_EQ(out.NumRows(), 2);
  EXPECT_EQ(out.At(0, 1), 20);
}

TEST(OpsTest, FilterColumnVsColumn) {
  Relation rel = MakeRelation({"a", "b"}, {{1, 1}, {2, 5}, {7, 7}});
  Relation out =
      ops::Filter(rel, FilterPredicate::ColumnVsColumn(0, CompareOp::kEq, 1));
  EXPECT_EQ(out.NumRows(), 2);
}

TEST(OpsTest, FilterAllCompareOps) {
  Relation rel = MakeRelation({"a"}, {{1}, {2}, {3}});
  EXPECT_EQ(ops::Filter(rel, FilterPredicate::ColumnVsLiteral(0, CompareOp::kEq, 2))
                .NumRows(),
            1);
  EXPECT_EQ(ops::Filter(rel, FilterPredicate::ColumnVsLiteral(0, CompareOp::kNe, 2))
                .NumRows(),
            2);
  EXPECT_EQ(ops::Filter(rel, FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 2))
                .NumRows(),
            1);
  EXPECT_EQ(ops::Filter(rel, FilterPredicate::ColumnVsLiteral(0, CompareOp::kLe, 2))
                .NumRows(),
            2);
  EXPECT_EQ(ops::Filter(rel, FilterPredicate::ColumnVsLiteral(0, CompareOp::kGt, 2))
                .NumRows(),
            1);
  EXPECT_EQ(ops::Filter(rel, FilterPredicate::ColumnVsLiteral(0, CompareOp::kGe, 2))
                .NumRows(),
            2);
}

TEST(OpsTest, JoinInnerEquiJoin) {
  Relation left = MakeRelation({"k", "x"}, {{1, 10}, {2, 20}, {3, 30}});
  Relation right = MakeRelation({"k", "y"}, {{2, 200}, {3, 300}, {4, 400}});
  const int lk[] = {0};
  const int rk[] = {0};
  Relation out = ops::Join(left, right, lk, rk);
  EXPECT_EQ(out.schema().ToString(), "(k{}, x{}, y{})");
  Relation expected = MakeRelation({"k", "x", "y"}, {{2, 20, 200}, {3, 30, 300}});
  EXPECT_TRUE(UnorderedEqual(out, expected));
}

TEST(OpsTest, JoinDuplicateKeysProduceCrossProduct) {
  Relation left = MakeRelation({"k", "x"}, {{1, 10}, {1, 11}});
  Relation right = MakeRelation({"k", "y"}, {{1, 100}, {1, 101}});
  const int keys[] = {0};
  Relation out = ops::Join(left, right, keys, keys);
  EXPECT_EQ(out.NumRows(), 4);
}

TEST(OpsTest, JoinMultiColumnKeys) {
  Relation left = MakeRelation({"k1", "k2", "x"}, {{1, 1, 10}, {1, 2, 20}});
  Relation right = MakeRelation({"k1", "k2", "y"}, {{1, 2, 99}});
  const int keys[] = {0, 1};
  Relation out = ops::Join(left, right, keys, keys);
  ASSERT_EQ(out.NumRows(), 1);
  EXPECT_EQ(out.At(0, 2), 20);
  EXPECT_EQ(out.At(0, 3), 99);
}

TEST(OpsTest, JoinOutputSchemaReportsRestColumns) {
  Schema left = Schema::Of({"k", "x"});
  Schema right = Schema::Of({"k", "y", "z"});
  const int keys[] = {0};
  std::vector<int> left_rest;
  std::vector<int> right_rest;
  Schema out = ops::JoinOutputSchema(left, right, keys, keys, &left_rest, &right_rest);
  EXPECT_EQ(out.ToString(), "(k{}, x{}, y{}, z{})");
  EXPECT_EQ(left_rest, (std::vector<int>{1}));
  EXPECT_EQ(right_rest, (std::vector<int>{1, 2}));
}

TEST(OpsTest, AggregateSumByGroup) {
  Relation rel = MakeRelation({"g", "v"}, {{1, 10}, {2, 5}, {1, 7}, {2, 1}});
  const int group[] = {0};
  Relation out = ops::Aggregate(rel, group, AggKind::kSum, 1, "total");
  Relation expected = MakeRelation({"g", "total"}, {{1, 17}, {2, 6}});
  EXPECT_TRUE(out.RowsEqual(expected));  // Output sorted by key: exact match.
}

TEST(OpsTest, AggregateCountIgnoresAggColumn) {
  Relation rel = MakeRelation({"g", "v"}, {{1, 10}, {1, 20}, {2, 5}});
  const int group[] = {0};
  Relation out = ops::Aggregate(rel, group, AggKind::kCount, 0, "cnt");
  Relation expected = MakeRelation({"g", "cnt"}, {{1, 2}, {2, 1}});
  EXPECT_TRUE(out.RowsEqual(expected));
}

TEST(OpsTest, AggregateMinMaxMean) {
  Relation rel = MakeRelation({"g", "v"}, {{1, 10}, {1, 4}, {1, 7}});
  const int group[] = {0};
  EXPECT_EQ(ops::Aggregate(rel, group, AggKind::kMin, 1, "m").At(0, 1), 4);
  EXPECT_EQ(ops::Aggregate(rel, group, AggKind::kMax, 1, "m").At(0, 1), 10);
  EXPECT_EQ(ops::Aggregate(rel, group, AggKind::kMean, 1, "m").At(0, 1), 7);
}

TEST(OpsTest, AggregateGlobal) {
  Relation rel = MakeRelation({"v"}, {{3}, {4}, {5}});
  Relation out = ops::Aggregate(rel, {}, AggKind::kSum, 0, "total");
  ASSERT_EQ(out.NumRows(), 1);
  EXPECT_EQ(out.At(0, 0), 12);
}

TEST(OpsTest, AggregateNegativeValues) {
  Relation rel = MakeRelation({"g", "v"}, {{1, -5}, {1, 3}});
  const int group[] = {0};
  EXPECT_EQ(ops::Aggregate(rel, group, AggKind::kSum, 1, "s").At(0, 1), -2);
  EXPECT_EQ(ops::Aggregate(rel, group, AggKind::kMin, 1, "s").At(0, 1), -5);
}

TEST(OpsTest, ConcatPreservesDuplicates) {
  Relation a = MakeRelation({"x"}, {{1}, {2}});
  Relation b = MakeRelation({"x"}, {{2}, {3}});
  Relation out = ops::Concat(std::vector<Relation>{a, b});
  EXPECT_EQ(out.NumRows(), 4);
}

TEST(OpsTest, SortByAscendingStable) {
  Relation rel = MakeRelation({"k", "tag"}, {{2, 1}, {1, 2}, {2, 3}, {1, 4}});
  const int cols[] = {0};
  Relation out = ops::SortBy(rel, cols);
  Relation expected = MakeRelation({"k", "tag"}, {{1, 2}, {1, 4}, {2, 1}, {2, 3}});
  EXPECT_TRUE(out.RowsEqual(expected));  // Stability: original order within keys.
}

TEST(OpsTest, SortByDescending) {
  Relation rel = MakeRelation({"k"}, {{1}, {3}, {2}});
  const int cols[] = {0};
  Relation out = ops::SortBy(rel, cols, /*ascending=*/false);
  Relation expected = MakeRelation({"k"}, {{3}, {2}, {1}});
  EXPECT_TRUE(out.RowsEqual(expected));
}

TEST(OpsTest, SortByMultiColumnLexicographic) {
  Relation rel = MakeRelation({"a", "b"}, {{1, 2}, {0, 9}, {1, 1}});
  const int cols[] = {0, 1};
  Relation out = ops::SortBy(rel, cols);
  Relation expected = MakeRelation({"a", "b"}, {{0, 9}, {1, 1}, {1, 2}});
  EXPECT_TRUE(out.RowsEqual(expected));
}

TEST(OpsTest, DistinctRemovesDuplicates) {
  Relation rel = MakeRelation({"a", "b"}, {{1, 9}, {2, 8}, {1, 7}});
  const int cols[] = {0};
  Relation out = ops::Distinct(rel, cols);
  Relation expected = MakeRelation({"a"}, {{1}, {2}});
  EXPECT_TRUE(out.RowsEqual(expected));
}

TEST(OpsTest, LimitTruncates) {
  Relation rel = MakeRelation({"a"}, {{1}, {2}, {3}});
  EXPECT_EQ(ops::Limit(rel, 2).NumRows(), 2);
  EXPECT_EQ(ops::Limit(rel, 10).NumRows(), 3);
  EXPECT_EQ(ops::Limit(rel, 0).NumRows(), 0);
}

TEST(OpsTest, ArithmeticAppendsColumn) {
  Relation rel = MakeRelation({"a", "b"}, {{6, 3}, {10, 5}});
  ArithSpec spec;
  spec.kind = ArithKind::kMul;
  spec.lhs_column = 0;
  spec.rhs_is_column = true;
  spec.rhs_column = 1;
  spec.result_name = "prod";
  Relation out = ops::Arithmetic(rel, spec);
  EXPECT_EQ(out.schema().ToString(), "(a{}, b{}, prod{})");
  EXPECT_EQ(out.At(0, 2), 18);
  EXPECT_EQ(out.At(1, 2), 50);
}

TEST(OpsTest, ArithmeticDivisionWithScale) {
  Relation rel = MakeRelation({"num", "den"}, {{1, 3}});
  ArithSpec spec;
  spec.kind = ArithKind::kDiv;
  spec.lhs_column = 0;
  spec.rhs_is_column = true;
  spec.rhs_column = 1;
  spec.result_name = "q";
  spec.scale = 10000;
  Relation out = ops::Arithmetic(rel, spec);
  EXPECT_EQ(out.At(0, 2), 3333);  // 1 * 10^4 / 3, fixed point.
}

TEST(OpsTest, ArithmeticDivisionByZeroYieldsZero) {
  Relation rel = MakeRelation({"num", "den"}, {{5, 0}});
  ArithSpec spec;
  spec.kind = ArithKind::kDiv;
  spec.lhs_column = 0;
  spec.rhs_is_column = true;
  spec.rhs_column = 1;
  spec.result_name = "q";
  EXPECT_EQ(ops::Arithmetic(rel, spec).At(0, 2), 0);
}

TEST(OpsTest, ArithmeticLiteralAddSub) {
  Relation rel = MakeRelation({"a"}, {{10}});
  ArithSpec add;
  add.kind = ArithKind::kAdd;
  add.lhs_column = 0;
  add.rhs_literal = 5;
  add.result_name = "r";
  EXPECT_EQ(ops::Arithmetic(rel, add).At(0, 1), 15);
  ArithSpec sub = add;
  sub.kind = ArithKind::kSub;
  EXPECT_EQ(ops::Arithmetic(rel, sub).At(0, 1), 5);
}

TEST(OpsTest, IsSortedBy) {
  Relation sorted = MakeRelation({"a"}, {{1}, {2}, {2}, {5}});
  Relation unsorted = MakeRelation({"a"}, {{2}, {1}});
  const int cols[] = {0};
  EXPECT_TRUE(ops::IsSortedBy(sorted, cols));
  EXPECT_FALSE(ops::IsSortedBy(unsorted, cols));
}

// --- Property sweeps -------------------------------------------------------------------

class OpsPropertyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(OpsPropertyTest, SortProducesSortedPermutation) {
  const int64_t n = GetParam();
  Rng rng(n);
  Relation rel{Schema::Of({"k", "v"})};
  for (int64_t i = 0; i < n; ++i) {
    rel.AppendRow({rng.NextInRange(0, 20), i});
  }
  const int cols[] = {0};
  Relation out = ops::SortBy(rel, cols);
  EXPECT_TRUE(ops::IsSortedBy(out, cols));
  EXPECT_TRUE(UnorderedEqual(rel, out));
}

TEST_P(OpsPropertyTest, AggregateSumMatchesManualTotals) {
  const int64_t n = GetParam();
  Rng rng(n + 1);
  Relation rel{Schema::Of({"g", "v"})};
  std::map<int64_t, int64_t> expected;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = rng.NextInRange(0, 9);
    const int64_t v = rng.NextInRange(-50, 50);
    rel.AppendRow({g, v});
    expected[g] += v;
  }
  const int group[] = {0};
  Relation out = ops::Aggregate(rel, group, AggKind::kSum, 1, "s");
  ASSERT_EQ(out.NumRows(), static_cast<int64_t>(expected.size()));
  for (int64_t r = 0; r < out.NumRows(); ++r) {
    EXPECT_EQ(out.At(r, 1), expected[out.At(r, 0)]);
  }
}

TEST_P(OpsPropertyTest, JoinMatchesNestedLoopReference) {
  const int64_t n = GetParam();
  Rng rng(n + 2);
  Relation left{Schema::Of({"k", "x"})};
  Relation right{Schema::Of({"k", "y"})};
  for (int64_t i = 0; i < n; ++i) {
    left.AppendRow({rng.NextInRange(0, 15), i});
    right.AppendRow({rng.NextInRange(0, 15), 1000 + i});
  }
  const int keys[] = {0};
  Relation out = ops::Join(left, right, keys, keys);
  Relation reference{Schema::Of({"k", "x", "y"})};
  for (int64_t l = 0; l < n; ++l) {
    for (int64_t r = 0; r < n; ++r) {
      if (left.At(l, 0) == right.At(r, 0)) {
        reference.AppendRow({left.At(l, 0), left.At(l, 1), right.At(r, 1)});
      }
    }
  }
  EXPECT_TRUE(UnorderedEqual(out, reference));
}

TEST_P(OpsPropertyTest, DistinctCountsUniqueKeys) {
  const int64_t n = GetParam();
  Rng rng(n + 3);
  Relation rel{Schema::Of({"k"})};
  std::set<int64_t> unique;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = rng.NextInRange(0, 25);
    rel.AppendRow({k});
    unique.insert(k);
  }
  const int cols[] = {0};
  EXPECT_EQ(ops::Distinct(rel, cols).NumRows(),
            static_cast<int64_t>(unique.size()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, OpsPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 16, 50, 128, 500));

TEST(WindowTest, RowNumberRestartsPerPartition) {
  Relation rel = MakeRelation({"pid", "t"},
                              {{2, 30}, {1, 10}, {2, 10}, {1, 20}, {2, 20}});
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kRowNumber;
  spec.output_name = "rn";
  const Relation out = ops::Window(rel, spec);
  const Relation expected = MakeRelation(
      {"pid", "t", "rn"},
      {{1, 10, 1}, {1, 20, 2}, {2, 10, 1}, {2, 20, 2}, {2, 30, 3}});
  EXPECT_TRUE(out.RowsEqual(expected)) << out.ToString();
}

TEST(WindowTest, LagIsZeroAtPartitionStart) {
  Relation rel = MakeRelation({"pid", "t"},
                              {{1, 100}, {2, 50}, {1, 200}, {2, 70}, {1, 150}});
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kLag;
  spec.value_column = 1;
  spec.output_name = "prev_t";
  const Relation out = ops::Window(rel, spec);
  const Relation expected = MakeRelation(
      {"pid", "t", "prev_t"},
      {{1, 100, 0}, {1, 150, 100}, {1, 200, 150}, {2, 50, 0}, {2, 70, 50}});
  EXPECT_TRUE(out.RowsEqual(expected)) << out.ToString();
}

TEST(WindowTest, RunningSumAccumulatesWithinPartition) {
  Relation rel = MakeRelation({"k", "o", "v"},
                              {{1, 2, 10}, {1, 1, 5}, {2, 1, 7}, {1, 3, 1}});
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kRunningSum;
  spec.value_column = 2;
  spec.output_name = "total";
  const Relation out = ops::Window(rel, spec);
  const Relation expected = MakeRelation(
      {"k", "o", "v", "total"},
      {{1, 1, 5, 5}, {1, 2, 10, 15}, {1, 3, 1, 16}, {2, 1, 7, 7}});
  EXPECT_TRUE(out.RowsEqual(expected)) << out.ToString();
}

TEST(WindowTest, MultiColumnPartition) {
  Relation rel = MakeRelation({"a", "b", "o"},
                              {{1, 1, 2}, {1, 2, 1}, {1, 1, 1}, {1, 2, 2}});
  WindowSpec spec;
  spec.partition_columns = {0, 1};
  spec.order_column = 2;
  spec.fn = WindowFn::kRowNumber;
  spec.output_name = "rn";
  const Relation out = ops::Window(rel, spec);
  const Relation expected = MakeRelation(
      {"a", "b", "o", "rn"},
      {{1, 1, 1, 1}, {1, 1, 2, 2}, {1, 2, 1, 1}, {1, 2, 2, 2}});
  EXPECT_TRUE(out.RowsEqual(expected)) << out.ToString();
}

TEST(WindowTest, EmptyInputYieldsEmptyOutputWithAppendedColumn) {
  Relation rel = MakeRelation({"pid", "t"}, {});
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kLag;
  spec.value_column = 1;
  spec.output_name = "prev";
  const Relation out = ops::Window(rel, spec);
  EXPECT_EQ(out.NumRows(), 0);
  EXPECT_EQ(out.NumColumns(), 3);
  EXPECT_TRUE(out.schema().HasColumn("prev"));
}

TEST(WindowTest, SingleRowPartitionGetsNeutralValues) {
  Relation rel = MakeRelation({"pid", "t", "v"}, {{7, 1, 42}});
  for (const auto& [fn, expected] :
       {std::pair{WindowFn::kRowNumber, int64_t{1}},
        std::pair{WindowFn::kLag, int64_t{0}},
        std::pair{WindowFn::kRunningSum, int64_t{42}}}) {
    WindowSpec spec;
    spec.partition_columns = {0};
    spec.order_column = 1;
    spec.fn = fn;
    spec.value_column = 2;
    spec.output_name = "w";
    const Relation out = ops::Window(rel, spec);
    ASSERT_EQ(out.NumRows(), 1);
    EXPECT_EQ(out.At(0, 3), expected) << WindowFnName(fn);
  }
}

TEST(WindowTest, OutputIsSortedByPartitionThenOrder) {
  Rng rng(99);
  Relation rel{Schema::Of({"p", "o", "v"})};
  for (int i = 0; i < 200; ++i) {
    rel.AppendRow({static_cast<int64_t>(rng.NextBelow(5)),
                   static_cast<int64_t>(rng.NextBelow(50)),
                   static_cast<int64_t>(rng.NextBelow(100))});
  }
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kRunningSum;
  spec.value_column = 2;
  spec.output_name = "rs";
  const Relation out = ops::Window(rel, spec);
  const int sort_cols[] = {0, 1};
  EXPECT_TRUE(ops::IsSortedBy(out, sort_cols));
  EXPECT_EQ(out.NumRows(), rel.NumRows());
}

TEST(CsvTest, RoundTrip) {
  Relation rel = MakeRelation({"a", "b"}, {{1, -2}, {3, 4}});
  const auto parsed = ParseCsv(ToCsv(rel));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->RowsEqual(rel));
}

TEST(CsvTest, RejectsMalformedCell) {
  EXPECT_FALSE(ParseCsv("a,b\n1,x\n").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, AcceptsExplicitSigns) {
  const auto parsed = ParseCsv("a,b\n+5,-7\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->At(0, 0), 5);
  EXPECT_EQ(parsed->At(0, 1), -7);
}

TEST(CsvTest, RejectsWhitespaceAndSignOnlyCells) {
  // strtoll would silently accept all of these prefixes; the parser must not.
  EXPECT_FALSE(ParseCsv("a\n 5\n").ok());    // Leading whitespace.
  EXPECT_FALSE(ParseCsv("a\n\t5\n").ok());   // Leading tab.
  EXPECT_FALSE(ParseCsv("a\n+\n").ok());     // Sign with no digits.
  EXPECT_FALSE(ParseCsv("a\n-\n").ok());
  EXPECT_FALSE(ParseCsv("a\n+ 5\n").ok());   // Sign then whitespace.
  EXPECT_FALSE(ParseCsv("a\n5 \n").ok());    // Trailing whitespace.
}

TEST(CsvTest, RejectsEmbeddedNul) {
  // strtoll stops at an embedded NUL; the parser must notice the dropped tail.
  const std::string text("a\n5\0junk\n", 9);
  EXPECT_FALSE(ParseCsv(text).ok());
}

TEST(CsvTest, RejectsOverflow) {
  EXPECT_TRUE(ParseCsv("a\n9223372036854775807\n").ok());   // INT64_MAX fits.
  EXPECT_TRUE(ParseCsv("a\n-9223372036854775808\n").ok());  // INT64_MIN fits.
  const auto over = ParseCsv("a\n9223372036854775808\n");
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().ToString().find("overflow"), std::string::npos);
  EXPECT_FALSE(ParseCsv("a\n-9223372036854775809\n").ok());
}

TEST(CsvTest, RejectsEmptyTrailingField) {
  // "1,2," splits into three fields, the last empty — a schema mismatch or an empty
  // cell, never a silent zero.
  EXPECT_FALSE(ParseCsv("a,b\n1,2,\n").ok());
  const auto status = ParseCsv("a,b,c\n1,2,\n");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.status().ToString().find("empty cell"), std::string::npos);
}

TEST(CsvTest, SkipsEmptyLines) {
  const auto parsed = ParseCsv("a\n1\n\n2\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumRows(), 2);
}

TEST(CsvTest, FileRoundTrip) {
  Relation rel = MakeRelation({"x"}, {{42}});
  const std::string path = ::testing::TempDir() + "/conclave_csv_test.csv";
  ASSERT_TRUE(WriteCsv(rel, path).ok());
  const auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->RowsEqual(rel));
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadCsv("/nonexistent/nope.csv").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace conclave
