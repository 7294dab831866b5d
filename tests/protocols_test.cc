// Tests for the MPC relational protocols: every secure operator must reconstruct to
// exactly what the cleartext operator library computes, while revealing only the
// sanctioned sizes and staying inside the simulated memory budget.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "conclave/mpc/protocols.h"
#include "test_util.h"

namespace conclave {
namespace {

Relation RandomRelation(std::initializer_list<std::string> names, int64_t rows,
                        int64_t key_range, uint64_t seed) {
  std::vector<ColumnDef> defs;
  for (const auto& name : names) {
    defs.emplace_back(name);
  }
  Relation rel{Schema(std::move(defs))};
  Rng rng(seed);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int64_t> row;
    for (int c = 0; c < rel.NumColumns(); ++c) {
      row.push_back(rng.NextInRange(0, key_range - 1));
    }
    rel.AppendRow(row);
  }
  return rel;
}

class ProtocolsTest : public ::testing::Test {
 protected:
  ProtocolsTest() : net_(CostModel{}), engine_(&net_, 555) {}

  SharedRelation Share(const Relation& rel) {
    auto shared = mpc::InputRelation(engine_, rel);
    CONCLAVE_CHECK(shared.ok());
    return *std::move(shared);
  }

  SimNetwork net_;
  SecretShareEngine engine_;
};

TEST_F(ProtocolsTest, InputChargesIngestCosts) {
  Relation rel = RandomRelation({"a", "b"}, 100, 50, 1);
  const double before = net_.ElapsedSeconds();
  Share(rel);
  EXPECT_GE(net_.ElapsedSeconds() - before, 100 * net_.model().ss_record_io_seconds);
  EXPECT_GE(net_.counters().network_bytes,
            200 * net_.model().ss_bytes_per_shared_cell);
}

TEST_F(ProtocolsTest, RevealRoundTrips) {
  Relation rel = RandomRelation({"a", "b"}, 20, 10, 2);
  EXPECT_TRUE(mpc::RevealRelation(engine_, Share(rel)).RowsEqual(rel));
}

TEST_F(ProtocolsTest, ProjectMatchesCleartext) {
  Relation rel = RandomRelation({"a", "b", "c"}, 30, 10, 3);
  const int cols[] = {2, 0};
  Relation secure =
      ReconstructRelation(mpc::Project(Share(rel), cols));
  EXPECT_TRUE(secure.RowsEqual(ops::Project(rel, cols)));
}

TEST_F(ProtocolsTest, ConcatMatchesCleartext) {
  Relation a = RandomRelation({"x", "y"}, 10, 5, 4);
  Relation b = RandomRelation({"x", "y"}, 15, 5, 5);
  const SharedRelation shared_a = Share(a);
  const SharedRelation shared_b = Share(b);
  const SharedRelation* const inputs[] = {&shared_a, &shared_b};
  SharedRelation merged = mpc::Concat(inputs);
  EXPECT_TRUE(ReconstructRelation(merged).RowsEqual(
      ops::Concat(std::vector<Relation>{a, b})));
}

TEST_F(ProtocolsTest, ArithmeticAllKinds) {
  Relation rel = RandomRelation({"a", "b"}, 25, 40, 6);
  for (ArithKind kind :
       {ArithKind::kAdd, ArithKind::kSub, ArithKind::kMul, ArithKind::kDiv}) {
    ArithSpec spec;
    spec.kind = kind;
    spec.lhs_column = 0;
    spec.rhs_is_column = true;
    spec.rhs_column = 1;
    spec.result_name = "r";
    spec.scale = kind == ArithKind::kDiv ? 100 : 1;
    Relation secure =
        ReconstructRelation(mpc::Arithmetic(engine_, Share(rel), spec));
    EXPECT_TRUE(secure.RowsEqual(ops::Arithmetic(rel, spec)))
        << "kind " << ArithKindName(kind);
  }
}

TEST_F(ProtocolsTest, ArithmeticLiteralKinds) {
  Relation rel = RandomRelation({"a"}, 12, 30, 7);
  ArithSpec spec;
  spec.kind = ArithKind::kMul;
  spec.lhs_column = 0;
  spec.rhs_is_column = false;
  spec.rhs_literal = -3;
  spec.result_name = "r";
  Relation secure = ReconstructRelation(mpc::Arithmetic(engine_, Share(rel), spec));
  EXPECT_TRUE(secure.RowsEqual(ops::Arithmetic(rel, spec)));
}

TEST_F(ProtocolsTest, FilterMatchesCleartextUnordered) {
  Relation rel = RandomRelation({"a", "b"}, 60, 10, 9);
  const auto predicate = FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 5);
  const auto secure = mpc::Filter(engine_, Share(rel), predicate);
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(
      UnorderedEqual(ReconstructRelation(*secure), ops::Filter(rel, predicate)));
}

TEST_F(ProtocolsTest, FilterColumnVsColumn) {
  Relation rel = RandomRelation({"a", "b"}, 40, 4, 10);
  const auto predicate = FilterPredicate::ColumnVsColumn(0, CompareOp::kEq, 1);
  const auto secure = mpc::Filter(engine_, Share(rel), predicate);
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(
      UnorderedEqual(ReconstructRelation(*secure), ops::Filter(rel, predicate)));
}

TEST_F(ProtocolsTest, JoinMatchesCleartextUnordered) {
  Relation left = RandomRelation({"k", "x"}, 25, 12, 11);
  Relation right = RandomRelation({"k", "y"}, 30, 12, 12);
  const int keys[] = {0};
  const auto secure = mpc::Join(engine_, Share(left), Share(right), keys, keys);
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*secure),
                             ops::Join(left, right, keys, keys)));
}

TEST_F(ProtocolsTest, JoinChargesQuadraticEqualityCost) {
  Relation left = RandomRelation({"k", "x"}, 20, 5, 13);
  Relation right = RandomRelation({"k", "y"}, 30, 5, 14);
  const int keys[] = {0};
  Share(left);  // Warm counters with ingest, then measure the join alone.
  const uint64_t before = net_.counters().mpc_comparisons;
  auto result = mpc::Join(engine_, Share(left), Share(right), keys, keys);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(net_.counters().mpc_comparisons - before, 20u * 30u);
}

TEST_F(ProtocolsTest, JoinEmptyResult) {
  Relation left{Schema::Of({"k", "x"})};
  left.AppendRow({1, 10});
  Relation right{Schema::Of({"k", "y"})};
  right.AppendRow({2, 20});
  const int keys[] = {0};
  const auto secure = mpc::Join(engine_, Share(left), Share(right), keys, keys);
  ASSERT_TRUE(secure.ok());
  EXPECT_EQ(secure->NumRows(), 0);
}

TEST_F(ProtocolsTest, AggregateSumMatchesCleartext) {
  Relation rel = RandomRelation({"g", "v"}, 50, 8, 15);
  const int group[] = {0};
  const auto secure =
      mpc::Aggregate(engine_, Share(rel), group, AggKind::kSum, 1, "total");
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*secure),
                             ops::Aggregate(rel, group, AggKind::kSum, 1, "total")));
}

class AggregateKindTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(AggregateKindTest, MatchesCleartextAcrossKinds) {
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 777);
  Relation rel = RandomRelation({"g", "v"}, 40, 6, 16);
  auto shared = mpc::InputRelation(engine, rel);
  ASSERT_TRUE(shared.ok());
  const int group[] = {0};
  const auto secure =
      mpc::Aggregate(engine, *shared, group, GetParam(), 1, "out");
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*secure),
                             ops::Aggregate(rel, group, GetParam(), 1, "out")));
}

TEST_P(AggregateKindTest, GlobalAggregateMatches) {
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 778);
  Relation rel = RandomRelation({"v"}, 33, 100, 17);
  auto shared = mpc::InputRelation(engine, rel);
  ASSERT_TRUE(shared.ok());
  const auto secure = mpc::Aggregate(engine, *shared, {}, GetParam(), 0, "out");
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(ReconstructRelation(*secure).RowsEqual(
      ops::Aggregate(rel, {}, GetParam(), 0, "out")));
}

INSTANTIATE_TEST_SUITE_P(Kinds, AggregateKindTest,
                         ::testing::Values(AggKind::kSum, AggKind::kCount,
                                           AggKind::kMin, AggKind::kMax,
                                           AggKind::kMean));

TEST_F(ProtocolsTest, AggregateMultiColumnGroup) {
  Relation rel = RandomRelation({"g1", "g2", "v"}, 45, 3, 18);
  const int group[] = {0, 1};
  const auto secure =
      mpc::Aggregate(engine_, Share(rel), group, AggKind::kSum, 2, "s");
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*secure),
                             ops::Aggregate(rel, group, AggKind::kSum, 2, "s")));
}

TEST_F(ProtocolsTest, AggregateAssumeSortedSkipsSortCost) {
  Relation rel = RandomRelation({"g", "v"}, 64, 6, 19);
  const int group[] = {0};
  Relation sorted = ops::SortBy(rel, group);

  SimNetwork net_sorted{CostModel{}};
  SecretShareEngine engine_sorted(&net_sorted, 1);
  auto shared = mpc::InputRelation(engine_sorted, sorted);
  auto result = mpc::Aggregate(engine_sorted, *shared, group, AggKind::kSum, 1, "s",
                               /*assume_sorted=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(UnorderedEqual(ReconstructRelation(*result),
                             ops::Aggregate(rel, group, AggKind::kSum, 1, "s")));

  SimNetwork net_full{CostModel{}};
  SecretShareEngine engine_full(&net_full, 1);
  auto shared_full = mpc::InputRelation(engine_full, sorted);
  ASSERT_TRUE(
      mpc::Aggregate(engine_full, *shared_full, group, AggKind::kSum, 1, "s").ok());
  // Sort elimination is the §5.4 win: the sorted path must be much cheaper.
  EXPECT_LT(net_sorted.ElapsedSeconds(), net_full.ElapsedSeconds() / 2);
}

TEST_F(ProtocolsTest, SortAndLimit) {
  Relation rel = RandomRelation({"k", "v"}, 30, 100, 20);
  const int cols[] = {0};
  const auto sorted = mpc::Sort(engine_, Share(rel), cols);
  ASSERT_TRUE(sorted.ok());
  Relation clear = ReconstructRelation(*sorted);
  EXPECT_TRUE(ops::IsSortedBy(clear, cols));
  SharedRelation limited = mpc::Limit(*sorted, 5);
  EXPECT_EQ(limited.NumRows(), 5);
  EXPECT_TRUE(ReconstructRelation(limited).RowsEqual(ops::Limit(clear, 5)));
}

TEST_F(ProtocolsTest, SortDescendingForOrderByLimit) {
  Relation rel = RandomRelation({"k"}, 20, 50, 21);
  const int cols[] = {0};
  const auto sorted = mpc::Sort(engine_, Share(rel), cols, /*ascending=*/false);
  ASSERT_TRUE(sorted.ok());
  Relation clear = ReconstructRelation(*sorted);
  for (int64_t r = 1; r < clear.NumRows(); ++r) {
    EXPECT_GE(clear.At(r - 1, 0), clear.At(r, 0));
  }
}

TEST_F(ProtocolsTest, DistinctMatchesCleartext) {
  Relation rel = RandomRelation({"a", "b"}, 50, 4, 22);
  const int cols[] = {0};
  const auto secure = mpc::Distinct(engine_, Share(rel), cols);
  ASSERT_TRUE(secure.ok());
  EXPECT_TRUE(
      UnorderedEqual(ReconstructRelation(*secure), ops::Distinct(rel, cols)));
}

TEST_F(ProtocolsTest, FilterFlagsPreserveOrderAndSize) {
  Relation rel = RandomRelation({"a", "b"}, 30, 6, 23);
  const auto predicate = FilterPredicate::ColumnVsLiteral(0, CompareOp::kEq, 3);
  SharedRelation shared = Share(rel);
  SharedColumn flags = mpc::FilterFlags(engine_, shared, predicate);
  const auto bits = ReconstructValues(flags);
  ASSERT_EQ(bits.size(), static_cast<size_t>(rel.NumRows()));
  for (int64_t r = 0; r < rel.NumRows(); ++r) {
    EXPECT_EQ(bits[static_cast<size_t>(r)], rel.At(r, 0) == 3 ? 1 : 0);
  }
  // The relation itself is untouched: order-preserving by construction.
  EXPECT_TRUE(ReconstructRelation(shared).RowsEqual(rel));
}

TEST_F(ProtocolsTest, CountDistinctSortedMatchesReference) {
  Relation rel{Schema::Of({"k", "v"})};
  Rng rng(24);
  for (int64_t i = 0; i < 60; ++i) {
    rel.AppendRow({rng.NextInRange(0, 9), rng.NextInRange(0, 1)});
  }
  const int key[] = {0};
  Relation sorted = ops::SortBy(rel, key);
  SharedRelation shared = Share(sorted);
  SharedColumn keep = mpc::FilterFlags(
      engine_, shared, FilterPredicate::ColumnVsLiteral(1, CompareOp::kEq, 1));
  const auto counted =
      mpc::CountDistinctSorted(engine_, shared, 0, keep, "cnt");
  ASSERT_TRUE(counted.ok());
  // Reference: distinct keys among rows with v == 1.
  std::set<int64_t> expected;
  for (int64_t r = 0; r < sorted.NumRows(); ++r) {
    if (sorted.At(r, 1) == 1) {
      expected.insert(sorted.At(r, 0));
    }
  }
  EXPECT_EQ(ReconstructRelation(*counted).At(0, 0),
            static_cast<int64_t>(expected.size()));
}

TEST_F(ProtocolsTest, CountDistinctSortedAllKept) {
  Relation rel{Schema::Of({"k"})};
  for (int64_t v : {1, 1, 2, 3, 3, 3}) {
    rel.AppendRow({v});
  }
  SharedRelation shared = Share(rel);
  SharedColumn keep = SecretShareEngine::Public(std::vector<int64_t>(6, 1));
  const auto counted = mpc::CountDistinctSorted(engine_, shared, 0, keep, "cnt");
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(ReconstructRelation(*counted).At(0, 0), 3);
}

TEST_F(ProtocolsTest, CountDistinctSortedNoneKept) {
  Relation rel{Schema::Of({"k"})};
  rel.AppendRow({1});
  rel.AppendRow({2});
  SharedRelation shared = Share(rel);
  SharedColumn keep = SecretShareEngine::Public(std::vector<int64_t>(2, 0));
  const auto counted = mpc::CountDistinctSorted(engine_, shared, 0, keep, "cnt");
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(ReconstructRelation(*counted).At(0, 0), 0);
}

TEST(MemoryModelTest, WorkingSetOverLimitIsResourceExhausted) {
  CostModel model;
  const uint64_t cells_at_limit =
      model.ss_memory_limit_bytes / model.ss_bytes_per_resident_cell;
  EXPECT_TRUE(mpc::CheckWorkingSet(model, cells_at_limit, "test").ok());
  EXPECT_EQ(mpc::CheckWorkingSet(model, cells_at_limit + 1, "test").code(),
            StatusCode::kResourceExhausted);
}

TEST(MemoryModelTest, OversizedInputRelationOoms) {
  CostModel model;
  model.ss_memory_limit_bytes = 10000;  // Tiny VM for the test.
  SimNetwork net(model);
  SecretShareEngine engine(&net, 1);
  Relation rel = RandomRelation({"a", "b"}, 100, 10, 25);
  const auto result = mpc::InputRelation(engine, rel);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(LeakageTest, FilterRevealsOnlyOutputSize) {
  // The compaction opens flags only after an oblivious shuffle: the set of revealed
  // flag *positions* is a fresh random permutation, so only the count is meaningful.
  // We verify the mechanism: output rows differ in order across seeds while contents
  // agree.
  Relation rel = RandomRelation({"a", "b"}, 40, 5, 26);
  const auto predicate = FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 2);
  SimNetwork net1{CostModel{}};
  SecretShareEngine e1(&net1, 1);
  SimNetwork net2{CostModel{}};
  SecretShareEngine e2(&net2, 2);
  auto s1 = mpc::InputRelation(e1, rel);
  auto s2 = mpc::InputRelation(e2, rel);
  auto f1 = mpc::Filter(e1, *s1, predicate);
  auto f2 = mpc::Filter(e2, *s2, predicate);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  Relation r1 = ReconstructRelation(*f1);
  Relation r2 = ReconstructRelation(*f2);
  EXPECT_TRUE(UnorderedEqual(r1, r2));
  EXPECT_FALSE(r1.RowsEqual(r2));  // Shuffled: order differs across seeds.
}

// Window protocols: every fn must reconstruct to exactly the cleartext window on the
// same input. Unique (partition, order) pairs avoid SQL's tie ambiguity.
class WindowProtocolTest
    : public ProtocolsTest,
      public ::testing::WithParamInterface<std::tuple<WindowFn, int64_t>> {
 protected:
  // Rows with unique (p, o): p in [0, 8), o = a unique per-partition counter.
  Relation UniqueOrdered(int64_t rows, uint64_t seed) {
    Relation rel{Schema::Of({"p", "o", "v"})};
    Rng rng(seed);
    std::map<int64_t, int64_t> next_order;
    for (int64_t i = 0; i < rows; ++i) {
      const int64_t p = rng.NextInRange(0, 7);
      rel.AppendRow({p, next_order[p]++, rng.NextInRange(0, 99)});
    }
    return rel;
  }
};

TEST_P(WindowProtocolTest, MatchesCleartextWindow) {
  const auto [fn, rows] = GetParam();
  Relation rel = UniqueOrdered(rows, 17 + rows);
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = fn;
  spec.value_column = 2;
  spec.output_name = "w";

  const int partition[] = {0};
  const auto secure = mpc::Window(engine_, Share(rel), partition, 1, fn, 2, "w");
  ASSERT_TRUE(secure.ok());
  // Both sides emit rows sorted by (partition, order), so compare exactly.
  EXPECT_TRUE(ReconstructRelation(*secure).RowsEqual(ops::Window(rel, spec)));
}

INSTANTIATE_TEST_SUITE_P(
    FnsAndSizes, WindowProtocolTest,
    ::testing::Combine(::testing::Values(WindowFn::kRowNumber, WindowFn::kLag,
                                         WindowFn::kRunningSum),
                       ::testing::Values<int64_t>(0, 1, 2, 33, 100)),
    [](const auto& param_info) {
      return std::string(WindowFnName(std::get<0>(param_info.param))) + "_" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST_F(ProtocolsTest, WindowAssumeSortedSkipsSortAndStillMatches) {
  Relation rel{Schema::Of({"p", "o", "v"})};
  Rng rng(5);
  for (int64_t p = 0; p < 5; ++p) {
    for (int64_t o = 0; o < 12; ++o) {
      rel.AppendRow({p, o, rng.NextInRange(0, 50)});
    }
  }
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kRunningSum;
  spec.value_column = 2;
  spec.output_name = "rs";

  const int partition[] = {0};
  const uint64_t mults_before = net_.counters().mpc_multiplications;
  const auto sorted_path = mpc::Window(engine_, Share(rel), partition, 1,
                                       WindowFn::kRunningSum, 2, "rs",
                                       /*assume_sorted=*/true);
  const uint64_t mults_sorted = net_.counters().mpc_multiplications - mults_before;
  ASSERT_TRUE(sorted_path.ok());
  EXPECT_TRUE(ReconstructRelation(*sorted_path).RowsEqual(ops::Window(rel, spec)));

  const uint64_t before_full = net_.counters().mpc_multiplications;
  const auto full_path = mpc::Window(engine_, Share(rel), partition, 1,
                                     WindowFn::kRunningSum, 2, "rs",
                                     /*assume_sorted=*/false);
  ASSERT_TRUE(full_path.ok());
  const uint64_t mults_full = net_.counters().mpc_multiplications - before_full;
  EXPECT_LT(mults_sorted, mults_full);  // Sort elision saves the Batcher network.
}

TEST_F(ProtocolsTest, WindowLeaksNothingBeyondSize) {
  // No compaction and no reveal: output row count equals input row count and the
  // protocol opens no value-bearing columns (only Beaver-mult traffic flows).
  Relation rel = RandomRelation({"p", "o", "v"}, 64, 8, 23);
  const int partition[] = {0};
  const auto secure =
      mpc::Window(engine_, Share(rel), partition, 1, WindowFn::kRowNumber, 2, "rn");
  ASSERT_TRUE(secure.ok());
  EXPECT_EQ(secure->NumRows(), rel.NumRows());
  EXPECT_EQ(secure->NumColumns(), rel.NumColumns() + 1);
}

TEST_F(ProtocolsTest, WindowRespectsMemoryLimit) {
  CostModel tight;
  tight.ss_memory_limit_bytes = 1024;  // Far below 3x the working set.
  SimNetwork net(tight);
  SecretShareEngine engine(&net, 7);
  Relation rel = RandomRelation({"p", "o", "v"}, 500, 10, 29);
  auto shared = ShareRelation(rel, engine.rng());
  const int partition[] = {0};
  const auto result =
      mpc::Window(engine, shared, partition, 1, WindowFn::kRunningSum, 2, "rs");
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// --- Each protocol's charge composite reproduces its run exactly ---------------------

// Row counts of the composite grid: empty, single-row, tiny and multi-morsel inputs.
constexpr int64_t kCompositeRows[] = {0, 1, 2, 3, 17, 1000};

// `rows` rows of `keys` key columns k0.. (few distinct values, so groups, partitions
// and join matches repeat) followed by `values` value columns v0...
Relation KeyedRelation(int64_t rows, int keys, int values, uint64_t seed) {
  std::vector<ColumnDef> defs;
  for (int k = 0; k < keys; ++k) {
    defs.emplace_back("k" + std::to_string(k));
  }
  for (int v = 0; v < values; ++v) {
    defs.emplace_back("v" + std::to_string(v));
  }
  Relation rel{Schema(std::move(defs))};
  Rng rng(seed);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int64_t> row;
    for (int c = 0; c < rel.NumColumns(); ++c) {
      row.push_back(rng.NextInRange(c < keys ? 0 : -500, c < keys ? 3 : 500));
    }
    rel.AppendRow(row);
  }
  return rel;
}

std::vector<int> FirstColumns(int count) {
  std::vector<int> columns(static_cast<size_t>(count));
  for (int c = 0; c < count; ++c) {
    columns[static_cast<size_t>(c)] = c;
  }
  return columns;
}

// The default model, whose VM fits every grid shape, and one whose VM holds ten
// cells, so every working-set check on a non-trivial input fails.
std::vector<CostModel> CompositeModels() {
  CostModel tiny;
  tiny.ss_memory_limit_bytes = 10 * tiny.ss_bytes_per_resident_cell;
  return {CostModel{}, tiny};
}

// Runs a protocol (`run`, on an engine over a fresh network) and its composite
// (`price`, on another fresh network) and asserts the same status code and
// bit-identical charges: clock, meter, counters and byte matrix.
template <typename Run, typename Price>
void ExpectCompositeMatches(const CostModel& model, Run run, Price price,
                            const std::string& what) {
  SimNetwork run_net(model);
  SecretShareEngine engine(&run_net, 77);
  const Status ran = run(engine);
  SimNetwork priced_net(model);
  const Status priced = price(priced_net);
  ASSERT_EQ(ran.code(), priced.code())
      << what << ": " << ran.ToString() << " vs " << priced.ToString();
  test::ExpectSameCharges(run_net, priced_net, what);
}

TEST(ChargeCompositeTest, InputMatchesIngest) {
  for (const CostModel& model : CompositeModels()) {
    for (int64_t n : kCompositeRows) {
      const Relation rel = KeyedRelation(n, 1, 2, 10);
      ExpectCompositeMatches(
          model,
          [&](SecretShareEngine& e) { return mpc::InputRelation(e, rel).status(); },
          [&](SimNetwork& net) { return mpc::ChargeInput(net, n, 3); },
          "input n=" + std::to_string(n));
    }
  }
}

TEST(ChargeCompositeTest, FilterMatches) {
  Rng rng(2);
  for (const CostModel& model : CompositeModels()) {
    for (int64_t n : kCompositeRows) {
      const SharedRelation shared = ShareRelation(KeyedRelation(n, 1, 2, 20), rng);
      for (CompareOp op : {CompareOp::kEq, CompareOp::kLt}) {
        for (const FilterPredicate& predicate :
             {FilterPredicate::ColumnVsLiteral(1, op, 0),
              FilterPredicate::ColumnVsColumn(1, op, 2)}) {
          ExpectCompositeMatches(
              model,
              [&](SecretShareEngine& e) {
                return mpc::Filter(e, shared, predicate).status();
              },
              [&](SimNetwork& net) { return mpc::FilterCharges(net, n, 3, op); },
              "filter n=" + std::to_string(n) + " op=" +
                  std::to_string(static_cast<int>(op)) +
                  (predicate.rhs_is_column ? " column" : " literal"));
        }
      }
    }
  }
}

TEST(ChargeCompositeTest, JoinMatches) {
  Rng rng(3);
  for (const CostModel& model : CompositeModels()) {
    for (int64_t n : kCompositeRows) {
      for (int keys = 1; keys <= 3; ++keys) {
        const Relation left = KeyedRelation(n, keys, 1, 30);
        const Relation right = KeyedRelation(n == 1000 ? 40 : n, keys, 2, 31);
        const std::vector<int> key_columns = FirstColumns(keys);
        const uint64_t out = static_cast<uint64_t>(
            ops::Join(left, right, key_columns, key_columns).NumRows());
        const SharedRelation l = ShareRelation(left, rng);
        const SharedRelation r = ShareRelation(right, rng);
        ExpectCompositeMatches(
            model,
            [&](SecretShareEngine& e) {
              return mpc::Join(e, l, r, key_columns, key_columns).status();
            },
            [&](SimNetwork& net) {
              return mpc::JoinCharges(net, n, right.NumRows(), keys + 1, keys + 2, keys,
                                      out);
            },
            "join n=" + std::to_string(n) + " keys=" + std::to_string(keys));
      }
    }
  }
}

TEST(ChargeCompositeTest, AggregateMatchesEveryKindGroupedAndGlobal) {
  Rng rng(4);
  for (const CostModel& model : CompositeModels()) {
    for (int64_t n : kCompositeRows) {
      for (int keys = 0; keys <= 3; ++keys) {
        const SharedRelation shared = ShareRelation(KeyedRelation(n, keys, 2, 40), rng);
        const std::vector<int> group = FirstColumns(keys);
        for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                             AggKind::kMax, AggKind::kMean}) {
          for (bool sorted : {false, true}) {
            ExpectCompositeMatches(
                model,
                [&](SecretShareEngine& e) {
                  return mpc::Aggregate(e, shared, group, kind, keys, "out", sorted)
                      .status();
                },
                [&](SimNetwork& net) {
                  return mpc::AggregateCharges(net, n, keys + 2, keys, kind, sorted);
                },
                "aggregate n=" + std::to_string(n) + " keys=" + std::to_string(keys) +
                    " kind=" + std::to_string(static_cast<int>(kind)) +
                    " sorted=" + std::to_string(sorted));
          }
        }
      }
    }
  }
}

TEST(ChargeCompositeTest, WindowMatchesEveryFunction) {
  Rng rng(5);
  for (const CostModel& model : CompositeModels()) {
    for (int64_t n : kCompositeRows) {
      for (int partitions = 0; partitions <= 2; ++partitions) {
        // Partition columns, then the order and the value column.
        const SharedRelation shared =
            ShareRelation(KeyedRelation(n, partitions, 2, 50), rng);
        const std::vector<int> partition = FirstColumns(partitions);
        for (WindowFn fn :
             {WindowFn::kRowNumber, WindowFn::kLag, WindowFn::kRunningSum}) {
          for (bool sorted : {false, true}) {
            ExpectCompositeMatches(
                model,
                [&](SecretShareEngine& e) {
                  return mpc::Window(e, shared, partition, partitions, fn,
                                     partitions + 1, "w", sorted)
                      .status();
                },
                [&](SimNetwork& net) {
                  return mpc::WindowCharges(net, n, partitions + 2, partitions, fn,
                                            sorted);
                },
                "window n=" + std::to_string(n) +
                    " partitions=" + std::to_string(partitions) +
                    " fn=" + std::to_string(static_cast<int>(fn)) +
                    " sorted=" + std::to_string(sorted));
          }
        }
      }
    }
  }
}

TEST(ChargeCompositeTest, SortAndDistinctMatch) {
  Rng rng(6);
  for (const CostModel& model : CompositeModels()) {
    for (int64_t n : kCompositeRows) {
      for (int keys = 1; keys <= 3; ++keys) {
        const SharedRelation shared = ShareRelation(KeyedRelation(n, keys, 1, 60), rng);
        const std::vector<int> columns = FirstColumns(keys);
        const std::string shape =
            " n=" + std::to_string(n) + " keys=" + std::to_string(keys);
        for (bool sorted : {false, true}) {
          for (bool ascending : {true, false}) {
            ExpectCompositeMatches(
                model,
                [&](SecretShareEngine& e) {
                  return mpc::Sort(e, shared, columns, ascending, sorted).status();
                },
                [&](SimNetwork& net) {
                  return mpc::SortCharges(net, n, keys + 1, keys, ascending, sorted);
                },
                "sort" + shape + " ascending=" + std::to_string(ascending) +
                    " sorted=" + std::to_string(sorted));
          }
          ExpectCompositeMatches(
              model,
              [&](SecretShareEngine& e) {
                return mpc::Distinct(e, shared, columns, sorted).status();
              },
              [&](SimNetwork& net) {
                return mpc::DistinctCharges(net, n, keys + 1, keys, sorted);
              },
              "distinct" + shape + " sorted=" + std::to_string(sorted));
        }
      }
    }
  }
}

TEST(ChargeCompositeTest, ArithmeticMatchesEveryKind) {
  Rng rng(7);
  for (int64_t n : kCompositeRows) {
    const SharedRelation shared = ShareRelation(KeyedRelation(n, 0, 2, 70), rng);
    for (ArithKind kind :
         {ArithKind::kAdd, ArithKind::kSub, ArithKind::kMul, ArithKind::kDiv}) {
      for (bool column : {true, false}) {
        ArithSpec spec;
        spec.kind = kind;
        spec.lhs_column = 0;
        spec.rhs_is_column = column;
        spec.rhs_column = 1;
        spec.rhs_literal = 3;
        spec.result_name = "out";
        ExpectCompositeMatches(
            CostModel{},
            [&](SecretShareEngine& e) {
              mpc::Arithmetic(e, shared, spec);
              return Status::Ok();
            },
            [&](SimNetwork& net) {
              mpc::ArithmeticCharges(net, n, kind, column);
              return Status::Ok();
            },
            "arithmetic n=" + std::to_string(n) +
                " kind=" + std::to_string(static_cast<int>(kind)) +
                " column=" + std::to_string(column));
      }
    }
  }
}

// Merges that fit the merge network (a power-of-two run and a shorter one) and
// merges that fall back to a whole sort, folded over two and three branches.
TEST(ChargeCompositeTest, MergeConcatMatchesMergesAndSortFallbacks) {
  Rng rng(8);
  const std::vector<std::vector<int64_t>> shapes = {
      {4, 4}, {32, 20}, {40, 20}, {32, 20, 12}, {0, 5}, {16, 0, 16}};
  for (const std::vector<int64_t>& branches : shapes) {
    for (int keys = 1; keys <= 2; ++keys) {
      std::vector<SharedRelation> shared;
      std::vector<const SharedRelation*> inputs;
      for (int64_t rows : branches) {
        shared.push_back(ShareRelation(
            ops::SortBy(KeyedRelation(rows, keys, 1, 80 + rows), FirstColumns(keys)),
            rng));
      }
      for (const SharedRelation& branch : shared) {
        inputs.push_back(&branch);
      }
      std::string shape;
      for (int64_t rows : branches) {
        shape += " " + std::to_string(rows);
      }
      ExpectCompositeMatches(
          CostModel{},
          [&](SecretShareEngine& e) {
            mpc::MergeConcat(e, inputs, FirstColumns(keys));
            return Status::Ok();
          },
          [&](SimNetwork& net) {
            mpc::MergeConcatCharges(net, branches, keys + 1, keys);
            return Status::Ok();
          },
          "merge concat" + shape + " keys=" + std::to_string(keys));
    }
  }
}

}  // namespace
}  // namespace conclave
