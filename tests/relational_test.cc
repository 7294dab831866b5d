// Unit and property tests for the cleartext relational layer: schemas, relations,
// the operator library (the semantic ground truth for every backend), and CSV I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "conclave/common/rng.h"
#include "conclave/common/thread_pool.h"
#include "conclave/relational/csv.h"
#include "conclave/relational/hash_index.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/pipeline.h"
#include "conclave/relational/relation.h"
#include "row_major_reference.h"

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

// --- Hash index and join pair order ----------------------------------------------------

TEST(HashIndexTest, GroupsInFirstSeenOrderWithRowsAscending) {
  Relation rel = MakeRelation({"a", "b"},
                              {{5, 1}, {3, 1}, {5, 1}, {5, 2}, {3, 1}, {5, 1}});
  const int keys[] = {0, 1};
  const HashIndex index(rel, keys);
  const int64_t probe_a[] = {5, 3, 5, 1, 2};
  const int64_t probe_b[] = {1, 1, 2, 5, 3};
  const int64_t* const probe[] = {probe_a, probe_b};
  EXPECT_EQ(index.Find(probe, 0), 0);
  EXPECT_EQ(index.Find(probe, 1), 1);
  EXPECT_EQ(index.Find(probe, 2), 2);
  EXPECT_EQ(index.Find(probe, 3), -1);  // (1, 5): the cells of (5, 1) swapped.
  EXPECT_EQ(index.Find(probe, 4), -1);
  const auto rows = [&](int64_t group) {
    const auto span = index.Rows(group);
    return std::vector<int64_t>(span.begin(), span.end());
  };
  EXPECT_EQ(rows(0), (std::vector<int64_t>{0, 2, 5}));
  EXPECT_EQ(rows(1), (std::vector<int64_t>{1, 4}));
  EXPECT_EQ(rows(2), (std::vector<int64_t>{3}));
}

// ops::JoinRowPairs' contract from an ordered map of key tuples, with no hashing:
// left rows in scan order, each paired with its matching right rows ascending.
void ReferenceJoinPairs(const Relation& left, const Relation& right,
                        std::span<const int> left_keys,
                        std::span<const int> right_keys,
                        std::vector<int64_t>* left_rows,
                        std::vector<int64_t>* right_rows) {
  const auto key_of = [](const Relation& rel, std::span<const int> keys,
                         int64_t row) {
    std::vector<int64_t> key;
    for (int c : keys) {
      key.push_back(rel.At(row, c));
    }
    return key;
  };
  std::map<std::vector<int64_t>, std::vector<int64_t>> index;
  for (int64_t r = 0; r < right.NumRows(); ++r) {
    index[key_of(right, right_keys, r)].push_back(r);
  }
  for (int64_t l = 0; l < left.NumRows(); ++l) {
    const auto it = index.find(key_of(left, left_keys, l));
    if (it == index.end()) {
      continue;
    }
    for (int64_t r : it->second) {
      left_rows->push_back(l);
      right_rows->push_back(r);
    }
  }
}

void ExpectSamePairs(const Relation& left, const Relation& right,
                     std::span<const int> left_keys, std::span<const int> right_keys) {
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  ops::JoinRowPairs(left, right, left_keys, right_keys, &left_rows, &right_rows);
  std::vector<int64_t> expected_left;
  std::vector<int64_t> expected_right;
  ReferenceJoinPairs(left, right, left_keys, right_keys, &expected_left,
                     &expected_right);
  ASSERT_EQ(left_rows.size(), expected_left.size());
  EXPECT_TRUE(left_rows == expected_left);
  EXPECT_TRUE(right_rows == expected_right);
}

enum class KeyShape { kDistinct, kAllEqual, kHotKey };

// Key value `i` of a side's key pool: the INT64 extremes, -1 and 0 first, then
// scattered 64-bit values (SplitMix's finalizer is a bijection, so they differ).
int64_t PoolKey(int64_t i) {
  constexpr int64_t kFirst[] = {std::numeric_limits<int64_t>::min(),
                                std::numeric_limits<int64_t>::max(), -1, 0};
  return i < 4 ? kFirst[i] : static_cast<int64_t>(SplitMixFinalize(static_cast<uint64_t>(i)));
}

// `rows` rows of one join side in shuffled order. Columns: a payload, then
// `keys` key columns (the left side) or the key columns, then a payload (the
// right side), so the two sides' key positions differ. Row j's pool index is j
// on the right; on the left it is j for j < 4 and odd j, and rows + j (absent
// from the right) for even j >= 4. Two key columns split index i into
// (PoolKey(i / 2), PoolKey(i % 2)), so tuples that share a first cell differ in
// the second. kAllEqual puts every row on index 2; kHotKey puts four rows in
// five on index 0.
Relation PairSide(bool left, int64_t rows, int keys, KeyShape shape, uint64_t seed) {
  std::vector<std::string> names;
  if (left) {
    names.push_back("payload");
  }
  for (int k = 0; k < keys; ++k) {
    names.push_back("k" + std::to_string(k));
  }
  if (!left) {
    names.push_back("payload");
  }
  std::vector<ColumnDef> defs(names.begin(), names.end());
  Relation rel{Schema(std::move(defs))};
  const int first_key = left ? 1 : 0;
  const int payload = left ? 0 : keys;
  rel.Resize(rows);
  std::vector<int64_t> order(static_cast<size_t>(rows));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  for (int64_t j = 0; j < rows; ++j) {
    int64_t index = (!left || j < 4 || j % 2 == 1) ? j : rows + j;
    if (shape == KeyShape::kAllEqual) {
      index = 2;
    } else if (shape == KeyShape::kHotKey && j % 5 != 0) {
      index = 0;
    }
    const int64_t row = order[static_cast<size_t>(j)];
    rel.Set(row, payload, j);
    if (keys == 1) {
      rel.Set(row, first_key, PoolKey(index));
    } else {
      rel.Set(row, first_key, PoolKey(index / 2));
      rel.Set(row, first_key + 1, PoolKey(index % 2));
    }
  }
  return rel;
}

TEST(JoinPairOrderTest, MatchesOrderedMapReference) {
  struct Case {
    KeyShape shape;
    int64_t left_rows;
    int64_t right_rows;
  };
  // 40,000 build rows grow any table well past its first capacity. The
  // all-equal and hot-key shapes pair a 40,000-row side with a 17-row side:
  // at 40,000 rows on both they would emit ~10^9 pairs.
  const Case cases[] = {
      {KeyShape::kDistinct, 0, 0},      {KeyShape::kDistinct, 1, 1},
      {KeyShape::kDistinct, 17, 17},    {KeyShape::kDistinct, 40000, 40000},
      {KeyShape::kDistinct, 0, 17},     {KeyShape::kDistinct, 17, 0},
      {KeyShape::kAllEqual, 0, 0},      {KeyShape::kAllEqual, 1, 1},
      {KeyShape::kAllEqual, 17, 17},    {KeyShape::kAllEqual, 17, 40000},
      {KeyShape::kAllEqual, 40000, 17}, {KeyShape::kHotKey, 0, 0},
      {KeyShape::kHotKey, 1, 1},        {KeyShape::kHotKey, 17, 17},
      {KeyShape::kHotKey, 17, 40000},   {KeyShape::kHotKey, 40000, 17},
  };
  for (int keys = 1; keys <= 2; ++keys) {
    const std::vector<int> left_keys = keys == 1 ? std::vector<int>{1}
                                                 : std::vector<int>{1, 2};
    const std::vector<int> right_keys = keys == 1 ? std::vector<int>{0}
                                                  : std::vector<int>{0, 1};
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << "keys=" << keys << " shape=" << static_cast<int>(c.shape)
                   << " left=" << c.left_rows << " right=" << c.right_rows);
      const Relation left = PairSide(true, c.left_rows, keys, c.shape, 11);
      const Relation right = PairSide(false, c.right_rows, keys, c.shape, 12);
      ExpectSamePairs(left, right, left_keys, right_keys);
    }
  }
}

TEST(JoinPairOrderTest, KeyTuplesDoNotCommute) {
  // (1, 2) on the left must not pair with (2, 1) on the right.
  Relation left = MakeRelation({"a", "b"}, {{1, 2}, {2, 1}, {1, 2}, {2, 2}});
  Relation right = MakeRelation({"a", "b"}, {{2, 1}, {2, 2}, {2, 1}});
  const int keys[] = {0, 1};
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  ops::JoinRowPairs(left, right, keys, keys, &left_rows, &right_rows);
  EXPECT_EQ(left_rows, (std::vector<int64_t>{1, 1, 3}));
  EXPECT_EQ(right_rows, (std::vector<int64_t>{0, 2, 1}));
}

// --- Multi-morsel aggregation ----------------------------------------------------------

// Three full morsels plus a partial one, so GroupAggregator accumulates into
// per-morsel maps and merges them.
TEST(AggregateMorselTest, MatchesRowMajorReferenceAcrossMorsels) {
  const int64_t rows = 3 * kDefaultGrainRows + 257;
  Relation rel{Schema::Of({"g1", "g2", "v"})};
  rel.Resize(rows);
  Rng rng(23);
  constexpr int64_t kExtremes[] = {std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(), -1, 0};
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t group = rng.NextInRange(0, 999);
    rel.Set(r, 0, group / 40);
    rel.Set(r, 1, group % 40 - 20);
    rel.Set(r, 2, r % 97 == 0 ? kExtremes[(r / 97) % 4] : rng.NextInRange(-1000, 1000));
  }
  const rowmajor::RowMajorRelation reference_input =
      rowmajor::RowMajorRelation::FromColumnar(rel);
  const std::vector<std::vector<int>> group_sets = {{}, {0}, {0, 1}};
  const AggKind kinds[] = {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                           AggKind::kMax, AggKind::kMean};
  for (const int pool_size : {1, 4}) {
    ThreadPool pool(pool_size);
    ThreadPool::Scope scope(&pool);
    for (const auto& group : group_sets) {
      for (AggKind kind : kinds) {
        SCOPED_TRACE(::testing::Message()
                     << "pool=" << pool_size << " group_columns=" << group.size()
                     << " kind=" << AggKindName(kind));
        const Relation out = ops::Aggregate(rel, group, kind, 2, "agg");
        const Relation expected =
            rowmajor::ref::Aggregate(reference_input, group, kind, 2, "agg")
                .ToColumnar();
        EXPECT_TRUE(out.RowsEqual(expected));
      }
    }
  }
}

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

TEST(CsvTest, ParsesCrlfLines) {
  const auto parsed = ParseCsv("a,b\r\n1,-2\r\n3,4\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema().ToString(), Schema::Of({"a", "b"}).ToString());
  EXPECT_TRUE(parsed->RowsEqual(MakeRelation({"a", "b"}, {{1, -2}, {3, 4}})));
}

// Only a line's final CR is its line ending. A CR inside a cell, before the
// first cell, or ahead of a CRLF ending stays in its cell and is rejected.
TEST(CsvTest, RejectsCarriageReturnInsideALine) {
  for (const char* text : {"a,b\n4\r2,7\n", "a,b\n\r1,2\n", "a,b\r\n1,2\r\r\n"}) {
    const auto parsed = ParseCsv(text);
    ASSERT_FALSE(parsed.ok()) << parsed->ToString();
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
        << parsed.status().ToString();
  }
}

// A strict reader of the CSV format written from its rules alone, sharing no
// code with csv.cc. The first line names the columns, none empty. Every other
// non-empty line holds one [+-]?[0-9]+ int64 cell per column, separated by
// commas. Any line may end in one CR, the CR of a CRLF ending.
struct StrictCsv {
  std::vector<std::string> names;
  std::vector<std::vector<int64_t>> rows;
  size_t rejected_line = 0;  // 1-based line the reader rejects; 0 = accepted.
};

std::vector<std::string_view> SplitOn(std::string_view text, char separator) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == separator) {
      pieces.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::optional<int64_t> StrictInt(std::string_view cell) {
  size_t i = 0;
  const bool negative = !cell.empty() && cell[0] == '-';
  if (!cell.empty() && (cell[0] == '+' || cell[0] == '-')) {
    i = 1;
  }
  if (i == cell.size()) {
    return std::nullopt;
  }
  const uint64_t limit = negative ? uint64_t{1} << 63 : (uint64_t{1} << 63) - 1;
  uint64_t magnitude = 0;
  for (; i < cell.size(); ++i) {
    if (cell[i] < '0' || cell[i] > '9') {
      return std::nullopt;
    }
    const uint64_t digit = static_cast<uint64_t>(cell[i] - '0');
    if (magnitude > (limit - digit) / 10) {
      return std::nullopt;
    }
    magnitude = magnitude * 10 + digit;
  }
  return static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
}

StrictCsv StrictParse(std::string_view text) {
  StrictCsv csv;
  const auto without_cr = [](std::string_view line) {
    return !line.empty() && line.back() == '\r' ? line.substr(0, line.size() - 1)
                                                : line;
  };
  const std::vector<std::string_view> lines = SplitOn(text, '\n');
  for (std::string_view name : SplitOn(without_cr(lines[0]), ',')) {
    if (name.empty()) {
      csv.rejected_line = 1;
      return csv;
    }
    csv.names.emplace_back(name);
  }
  for (size_t l = 1; l < lines.size(); ++l) {
    if (lines[l].empty()) {
      continue;
    }
    const std::vector<std::string_view> cells = SplitOn(without_cr(lines[l]), ',');
    std::vector<int64_t>& row = csv.rows.emplace_back();
    for (std::string_view cell : cells) {
      const std::optional<int64_t> value = StrictInt(cell);
      if (cells.size() != csv.names.size() || !value.has_value()) {
        csv.rejected_line = l + 1;
        return csv;
      }
      row.push_back(*value);
    }
  }
  return csv;
}

// Seeded one-byte mutations (insert, replace or delete) of an LF and a CRLF
// file, drawn from the bytes that matter to the format. ParseCsv must accept
// exactly the texts the strict reader accepts, with its rows, and reject the
// rest as InvalidArgument naming the reader's line. A fused filter -> project
// chain streamed from the same text in batches of 7 must return the rows after
// the chain's ops, or ParseCsv's Status.
TEST(CsvTest, MutatedTextMatchesStrictReader) {
  const std::string kBytes(",\r\n-+0123456789 x\0", 18);
  const auto file = [](const std::string& eol) {
    Rng rng(/*seed=*/23);
    std::string text = "k,v,w" + eol;
    for (int r = 0; r < 20; ++r) {
      text += std::to_string(rng.NextInRange(-50, 50)) + "," +
              std::to_string(rng.NextInRange(-50, 50)) + ",+" +
              std::to_string(rng.NextInRange(0, 50)) + eol;
    }
    return text + "9223372036854775807,-9223372036854775808,-0" + eol;
  };
  std::string lf = file("\n");
  lf.insert(lf.find('\n', lf.size() / 2) + 1, "\n");  // One empty line.
  Rng rng(/*seed=*/41);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& base : {lf, file("\r\n")}) {
    for (int m = 0; m < 1200; ++m) {
      std::string text = base;
      const size_t at = rng.NextBelow(text.size());
      const char byte = kBytes[rng.NextBelow(kBytes.size())];
      switch (rng.NextBelow(3)) {
        case 0:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        case 1:
          text[at] = byte;
          break;
        default:
          text.erase(at, 1);
          break;
      }
      SCOPED_TRACE(testing::Message() << "mutation " << m << " at byte " << at);
      const StrictCsv want = StrictParse(text);
      const StatusOr<Relation> parsed = ParseCsv(text);
      if (want.rejected_line != 0) {
        ++rejected;
        ASSERT_FALSE(parsed.ok()) << parsed->ToString();
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
        if (want.rejected_line > 1) {
          const std::string line = "line " + std::to_string(want.rejected_line);
          const std::string& message = parsed.status().message();
          const size_t found = message.find(line);
          ASSERT_NE(found, std::string::npos) << message;
          const size_t next = found + line.size();
          EXPECT_TRUE(next == message.size() || message[next] == ' ') << message;
        }
      } else {
        ++accepted;
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        ASSERT_EQ(parsed->NumColumns(), static_cast<int>(want.names.size()));
        ASSERT_EQ(parsed->NumRows(), static_cast<int64_t>(want.rows.size()));
        for (int c = 0; c < parsed->NumColumns(); ++c) {
          EXPECT_EQ(parsed->schema().Column(c).name, want.names[static_cast<size_t>(c)]);
          for (int64_t r = 0; r < parsed->NumRows(); ++r) {
            EXPECT_EQ(parsed->At(r, c),
                      want.rows[static_cast<size_t>(r)][static_cast<size_t>(c)]);
          }
        }
      }

      StatusOr<CsvSource> source = CsvSource::FromText(text);
      if (!source.ok()) {
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(source.status().ToString(), parsed.status().ToString());
        continue;
      }
      const int columns = source->schema().NumColumns();
      const FilterPredicate keep = FilterPredicate::ColumnVsLiteral(0, CompareOp::kGe, 0);
      const std::vector<int> projected =
          columns > 1 ? std::vector<int>{columns - 1, 0} : std::vector<int>{0};
      PipelineSpec spec;
      spec.input_schema = source->schema();
      spec.ops = {PipelineOp::Filter(keep), PipelineOp::Project(projected)};
      BatchPipeline pipeline(spec);
      const StatusOr<Relation> streamed = pipeline.Run(*source, /*batch_rows=*/7);
      if (!parsed.ok()) {
        ASSERT_FALSE(streamed.ok());
        EXPECT_EQ(streamed.status().ToString(), parsed.status().ToString());
        continue;
      }
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      std::vector<ColumnDef> defs;
      for (const std::string& name : want.names) {
        defs.emplace_back(name);
      }
      Relation reference{Schema(std::move(defs))};
      for (const std::vector<int64_t>& row : want.rows) {
        reference.AppendRow(row);
      }
      const Relation expected = ops::Project(ops::Filter(reference, keep), projected);
      EXPECT_TRUE(streamed->RowsEqual(expected));
      EXPECT_EQ(streamed->schema().ToString(), expected.schema().ToString());
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 200);
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
